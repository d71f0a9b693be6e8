from fractions import Fraction

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
    pack_words,
    plane_dot,
    popcount_dot,
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


def _row_int(row) -> int:
    """A packed row of words read as one little-endian integer."""
    return int.from_bytes(row.tobytes(), "little")


def _bit_by_bit(bits) -> int:
    return sum(int(b) << j for j, b in enumerate(bits))


def test_pack_words_lsb_first():
    assert pack_words(np.array([1, 0, 1, 1])).tolist() == [0b1101]
    assert pack_words(np.zeros(0, dtype=bool)).shape == (0,)
    assert pack_words(np.zeros(8, dtype=bool)).tolist() == [0]
    assert pack_words(np.ones(65, dtype=bool)).tolist() == [(1 << 64) - 1, 1]


def test_pack_words_matches_bit_by_bit(rng):
    for length in (1, 7, 8, 9, 63, 64, 65, 4704):
        bits = rng.integers(0, 2, size=(3, length))
        words = pack_words(bits)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        assert words.shape == (3, -(-length // 64))
        for row, want in zip(words, bits):
            assert _row_int(row) == _bit_by_bit(want)


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
    # 11 x 11 x 1 packs to exactly two words per row, where packbits on
    # the moved-axis view returns a strided result
    for k, in_ch, out_ch in ((3, 4, 5), (11, 1, 5), (11, 3, 4)):
        raw = rng.standard_normal((k, k, in_ch, out_ch)).astype(np.float32)
        wb = WeightBlock.from_float(raw)
        assert wb.k == k and wb.in_ch == in_ch and wb.out_ch == out_ch
        assert wb.words.dtype == np.uint64 and wb.words.flags.c_contiguous
        flat = np.moveaxis(raw >= 0, 3, 0).reshape(out_ch, -1)
        for row, bits in zip(wb.words, flat):
            assert _row_int(row) == _bit_by_bit(bits)
        signed = wb.signed_matrix()
        assert signed.dtype == np.int64 and signed.shape == (out_ch, k * k * in_ch)
        assert np.array_equal(signed, np.where(flat, 1, -1))


def test_weight_block_zero_is_plus_one():
    raw = np.zeros((1, 1, 2, 1), dtype=np.float32)
    wb = WeightBlock.from_float(raw)
    assert np.array_equal(wb.signed_matrix().reshape(-1), [1, 1])


def test_weight_block_entry_layout():
    # entry bit j covers flat index (row * k + col) * in_ch + ch
    raw = -np.ones((2, 2, 3, 1), dtype=np.float32)
    raw[1, 0, 2, 0] = 1.0  # flat index (1 * 2 + 0) * 3 + 2 = 8
    wb = WeightBlock.from_float(raw)
    assert wb.words.tolist() == [[1 << 8]]


def test_weight_block_validation():
    with pytest.raises(ShapeError):
        WeightBlock.from_float(np.zeros((3, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        WeightBlock.from_float(np.zeros((3, 5, 1, 1), dtype=np.float32))
    WeightBlock(k=1, in_ch=65, out_ch=2, words=np.zeros((2, 2), dtype=np.uint64))
    bad_words = (
        np.zeros((1, 2), dtype=np.uint64),  # one row for two channels
        np.zeros((2, 1), dtype=np.uint64),  # one word for 65 bits
        np.zeros((2, 2), dtype=np.int64),
        np.zeros((2, 2), dtype=">u8"),
        np.zeros((2, 2), dtype=np.uint64, order="F"),
        np.array([[0, 2], [0, 0]], dtype=np.uint64),  # bit 65 of a 65-bit row
        [[0, 0], [0, 0]],
    )
    for words in bad_words:
        with pytest.raises(ShapeError):
            WeightBlock(k=1, in_ch=65, out_ch=2, words=words)


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
    # popcount_dot, the stages' kernel, must agree with the scalar reference
    # on every (window, entry) pair, for lengths on both sides of 64-bit
    # word boundaries and for all-zero and all-max codes
    for length in (1, 63, 64, 65, 128, 199, 4608):
        for n in (1, 2, 3):
            bits = rng.integers(0, 2, (3, length))
            wb = WeightBlock(k=1, in_ch=length, out_ch=3, words=pack_words(bits))
            rows = [_row_int(row) for row in wb.words]
            signs = 2 * bits - 1
            for batch in (1, 7):
                codes = rng.integers(0, 1 << n, (batch, length))
                codes[0] = 0
                codes[-1] = (1 << n) - 1
                got = popcount_dot(wb.words, codes, n)
                assert got.dtype == np.int64
                assert got.shape == (batch, 3)
                assert np.array_equal(got, codes @ signs.T)
                if length <= 199:
                    for row, want in zip(codes, got):
                        for w, value in zip(rows, want):
                            assert quantized_dot(w, row.tolist(), length, n) == value


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
        ThresholdSet(values=(1, 2), inverted=False, n=2)
    with pytest.raises(QuantizationError):
        ThresholdSet(values=(3, 2, 1), inverted=False, n=2)


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


def _wide_params_strategy():
    # nonzero gamma and inv_std down to subnormals, of either sign for
    # gamma: a tiny gamma * inv_std gives huge integer coefficients
    small = st.floats(min_value=-1e-30, max_value=1e-30, allow_subnormal=True)
    gamma = st.one_of(st.floats(min_value=-8.0, max_value=8.0), small)
    inv_std = st.one_of(st.floats(min_value=1e-3, max_value=8.0),
                        st.floats(min_value=0.0, max_value=1e-30, exclude_min=True,
                                  allow_subnormal=True))
    f = st.floats(min_value=-40000.0, max_value=40000.0)
    return st.builds(BnParams, gamma=gamma.filter(bool), mean=f,
                     inv_std=inv_std, bias=f)


_RANGE_SIZE = st.floats(min_value=1e-3, max_value=16.0)


@settings(max_examples=150, deadline=None)
@given(p=_wide_params_strategy(), d=_RANGE_SIZE,
       n=st.integers(min_value=1, max_value=8), data=st.data())
def test_quantize_array_matches_scalar_property(p, d, n, data):
    q = BnQuantizer(p, d, n)
    shape = data.draw(st.one_of(
        st.just((0,)),
        st.tuples(st.integers(1, 12)),
        st.tuples(st.integers(1, 5), st.integers(1, 5))))
    # few distinct values, so most of them repeat
    pool = data.draw(st.lists(st.integers(-40000, 40000), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
    accs = np.array(picks, dtype=np.int64).reshape(shape)
    out = q.quantize_array(accs)
    assert out.dtype == np.int64 and out.shape == shape
    assert out.reshape(-1).tolist() == [q.quantize(a) for a in picks]


@settings(max_examples=150, deadline=None)
@given(p=_wide_params_strategy(), d=_RANGE_SIZE)
def test_quantizer_coefficients_equal_fraction_derivation(p, d):
    # batchnorm(a) / d = (A * a + C) / D, the same rationals as Fraction gives
    q = BnQuantizer(p, d, 2)
    gi = Fraction(p.gamma) * Fraction(p.inv_std)
    assert q.d_coef > 0
    assert Fraction(q.a_coef, q.d_coef) == gi / Fraction(d)
    assert Fraction(q.c_coef, q.d_coef) == (Fraction(p.bias) - gi * Fraction(p.mean)) / Fraction(d)


def test_accum_bits_constant():
    assert ACCUM_BITS == 16
