import numpy as np
import pytest
from hypothesis import given, settings, assume, strategies as st

from qnnstream.errors import AccumOverflowError, QuantizationError, ShapeError
from qnnstream.quant import (
    ACCUM_BITS,
    BnParams,
    BnQuantizer,
    ThresholdSet,
    WeightBlock,
    apply_threshold,
    batchnorm,
    check_accum_array,
    codes_to_planes,
    fold_batchnorm,
    pack_bit_array,
    pack_bits,
    packed_dot,
    plane_dot,
    quantize_reference,
    quantized_dot,
)


# ---------------------------------------------------------------------------
# packing primitives

def test_popcount_matches_bin():
    # against all-ones weights a plane's dot product is its popcount
    ones = (1 << 64) - 1
    for x in [0, 1, 2, 3, 255, 1 << 40, (1 << 64) - 1]:
        assert plane_dot(ones, x, 64) == bin(x).count("1")


def test_pack_bits_lsb_first():
    assert pack_bits([1, 0, 1, 1]) == 0b1101
    assert pack_bits([]) == 0
    assert pack_bits([0] * 8) == 0


def test_pack_bit_array_matches_pack_bits(rng):
    for length in (1, 7, 8, 9, 63, 64, 65, 4704):
        bits = rng.integers(0, 2, size=length)
        assert pack_bit_array(bits) == pack_bits(bits.tolist())


# ---------------------------------------------------------------------------
# value types

def test_act_code_range():
    codes_to_planes([3, 0], 2)
    codes_to_planes([0, 1], 1)
    with pytest.raises(QuantizationError):
        codes_to_planes([4], 2)
    with pytest.raises(QuantizationError):
        codes_to_planes([-1], 2)


def test_accum_bounds():
    # the 16-bit accumulator range, value by value
    for good in (32767, -32768, 5):
        check_accum_array(np.array([good]))
    for bad in (32768, -32769, 1 << 20):
        with pytest.raises(AccumOverflowError):
            check_accum_array(np.array([bad]))


def test_check_accum_array():
    ok = np.array([32767, -32768, 0])
    assert check_accum_array(ok) is ok
    for bad in (32768, -32769, 1 << 20):
        with pytest.raises(AccumOverflowError):
            check_accum_array(np.array([0, bad]))
    check_accum_array(np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# packed weights

def test_weight_block_roundtrip(rng):
    raw = rng.standard_normal((3, 3, 4, 5)).astype(np.float32)
    wb = WeightBlock.from_float(raw)
    assert wb.k == 3 and wb.in_ch == 4 and wb.out_ch == 5
    signed = wb.signed_matrix()
    assert signed.dtype == np.int64 and signed.shape == (5, 3 * 3 * 4)
    expect = np.moveaxis(np.where(raw >= 0, 1, -1), 3, 0).reshape(5, -1)
    assert np.array_equal(signed, expect)


def test_weight_block_zero_is_plus_one():
    raw = np.zeros((1, 1, 2, 1), dtype=np.float32)
    wb = WeightBlock.from_float(raw)
    assert np.array_equal(wb.signed_matrix().reshape(-1), [1, 1])


def test_weight_block_entry_layout():
    # entry bit j covers flat index (row * k + col) * in_ch + ch
    raw = -np.ones((2, 2, 3, 1), dtype=np.float32)
    raw[1, 0, 2, 0] = 1.0  # flat index (1 * 2 + 0) * 3 + 2 = 8
    wb = WeightBlock.from_float(raw)
    assert wb.entries[0] == 1 << 8


def test_weight_block_validation():
    with pytest.raises(ShapeError):
        WeightBlock.from_float(np.zeros((3, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        WeightBlock.from_float(np.zeros((3, 5, 1, 1), dtype=np.float32))
    with pytest.raises(ShapeError):
        WeightBlock(k=1, in_ch=1, out_ch=2, entries=(0,))
    with pytest.raises(ShapeError):
        WeightBlock(k=1, in_ch=1, out_ch=1, entries=(2,))  # needs 2 bits


# ---------------------------------------------------------------------------
# popcount dot products

def _scalar_plane_dot(w, p, length):
    return sum((2 * ((w >> j) & 1) - 1) * ((p >> j) & 1) for j in range(length))


def test_plane_dot_exhaustive_small():
    for length in (1, 2, 3, 4):
        for w in range(1 << length):
            for p in range(1 << length):
                assert plane_dot(w, p, length) == _scalar_plane_dot(w, p, length)


def test_plane_dot_validation():
    with pytest.raises(ShapeError):
        plane_dot(-1, 0, 4)
    with pytest.raises(ShapeError):
        plane_dot(0, 16, 4)


def test_codes_to_planes_reconstructs():
    codes = [0, 1, 2, 3, 3, 0]
    planes = codes_to_planes(codes, 2)
    for j, c in enumerate(codes):
        assert sum(((planes[b] >> j) & 1) << b for b in range(2)) == c
    with pytest.raises(QuantizationError):
        codes_to_planes([4], 2)


def test_quantized_dot_matches_signed_dot(rng):
    # packed_dot, the stages' kernel, must agree with the scalar reference
    # on every entry, including entries longer than one 64-bit word
    for _ in range(50):
        length = int(rng.integers(1, 200))
        n = int(rng.integers(1, 4))
        entries = tuple(pack_bit_array(rng.integers(0, 2, length))
                        for _ in range(3))
        codes = rng.integers(0, 1 << n, length)
        kernel = packed_dot(entries, codes, n)
        assert kernel.dtype == np.int64
        for w, got in zip(entries, kernel):
            signs = np.array([2 * ((w >> j) & 1) - 1 for j in range(length)])
            assert quantized_dot(w, codes.tolist(), length, n) == int(signs @ codes)
            assert got == int(signs @ codes)


def test_quantized_dot_length_check():
    with pytest.raises(ShapeError):
        quantized_dot(0, [0, 1], 3, 1)


# ---------------------------------------------------------------------------
# batchnorm folding: frozen cases

def test_fold_ascending_frozen():
    ts = fold_batchnorm(BnParams(gamma=1.0, mean=13.0, inv_std=1.0, bias=0.0),
                        d=4.0, n=2)
    assert ts.values == (17, 21, 25)
    assert not ts.inverted
    assert apply_threshold(16, ts) == 0
    assert apply_threshold(17, ts) == 1  # boundary takes the higher code
    assert apply_threshold(18, ts) == 1
    assert apply_threshold(24, ts) == 2
    assert apply_threshold(25, ts) == 3
    assert apply_threshold(10**6, ts) == 3
    assert apply_threshold(-(10**6), ts) == 0


def test_fold_descending_frozen():
    ts = fold_batchnorm(BnParams(gamma=-1.0, mean=0.0, inv_std=1.0, bias=10.0),
                        d=4.0, n=2)
    assert ts.values == (-2, 2, 6)
    assert ts.inverted
    for a in range(-20, 21):
        ref = quantize_reference(batchnorm(a, BnParams(-1.0, 0.0, 1.0, 10.0)),
                                 4.0, 2)
        assert apply_threshold(a, ts) == ref, a


def test_fold_coarse_step_repeats_thresholds():
    # |step| < 1 collapses several codes onto the same integer threshold
    ts = fold_batchnorm(BnParams(gamma=8.0, mean=0.0, inv_std=1.0, bias=0.0),
                        d=1.0, n=2)
    assert ts.values == (1, 1, 1)
    assert apply_threshold(0, ts) == 0
    assert apply_threshold(1, ts) == 3


def test_quantize_reference_frozen():
    assert quantize_reference(9.5, 4.0, 2) == 2
    assert quantize_reference(8.0, 4.0, 2) == 2
    assert quantize_reference(-0.001, 4.0, 2) == 0
    assert quantize_reference(1e9, 4.0, 2) == 3
    assert quantize_reference(3.9, 4.0, 1) == 0
    with pytest.raises(QuantizationError):
        quantize_reference(1.0, 0.0, 2)


def test_fold_validation():
    p = BnParams(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(QuantizationError):
        fold_batchnorm(p, -1.0, 2)
    with pytest.raises(QuantizationError):
        fold_batchnorm(p, 1.0, 0)
    with pytest.raises(QuantizationError):
        fold_batchnorm(BnParams(0.0, 0.0, 1.0, 0.0), 1.0, 2)
    with pytest.raises(QuantizationError):
        BnQuantizer(BnParams(1.0, 0.0, 0.0, 0.0), 1.0, 2)


def test_threshold_set_validation():
    with pytest.raises(QuantizationError):
        ThresholdSet(values=(1, 2), inverted=False, n=2, tau=0.0, step=1.0)
    with pytest.raises(QuantizationError):
        ThresholdSet(values=(3, 2, 1), inverted=False, n=2, tau=0.0, step=1.0)


# ---------------------------------------------------------------------------
# exact equivalence of the two integer paths

def _params_strategy():
    f = st.floats(min_value=-8.0, max_value=8.0,
                  allow_nan=False, allow_infinity=False)
    pos = st.floats(min_value=1e-3, max_value=8.0,
                    allow_nan=False, allow_infinity=False)
    return st.builds(BnParams, gamma=f, mean=f, inv_std=pos, bias=f)


@settings(max_examples=150, deadline=None)
@given(p=_params_strategy(),
       d=st.floats(min_value=1e-2, max_value=16.0,
                   allow_nan=False, allow_infinity=False),
       n=st.integers(min_value=1, max_value=3),
       a=st.integers(min_value=-40000, max_value=40000))
def test_threshold_path_equals_exact_quantizer(p, d, n, a):
    assume(p.gamma != 0.0)
    ts = fold_batchnorm(p, d, n)
    q = BnQuantizer(p, d, n)
    assert apply_threshold(a, ts) == q.quantize(a)


@settings(max_examples=60, deadline=None)
@given(p=_params_strategy(),
       d=st.floats(min_value=1e-2, max_value=16.0,
                   allow_nan=False, allow_infinity=False),
       n=st.integers(min_value=1, max_value=3))
def test_threshold_path_near_every_threshold(p, d, n):
    assume(p.gamma != 0.0)
    ts = fold_batchnorm(p, d, n)
    q = BnQuantizer(p, d, n)
    for t in ts.values:
        for a in range(t - 2, t + 3):
            assert apply_threshold(a, ts) == q.quantize(a)


def test_quantize_array_matches_scalar(rng):
    p = BnParams(gamma=0.37, mean=-2.5, inv_std=1.9, bias=0.41)
    q = BnQuantizer(p, 1.3, 3)
    accs = rng.integers(-5000, 5000, size=(4, 7))
    out = q.quantize_array(accs)
    assert out.shape == accs.shape
    for idx in np.ndindex(accs.shape):
        assert out[idx] == q.quantize(int(accs[idx]))


def test_accum_bits_constant():
    assert ACCUM_BITS == 16
