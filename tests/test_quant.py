from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, assume, strategies as st

from conftest import wide_params_strategy
from reference import (
    BnChannel,
    apply_threshold,
    batchnorm,
    bn_code_floors_fraction,
    bn_code_fraction,
    bn_layer,
    codes_to_planes,
    fold_batchnorm_fraction,
    plane_dot,
    quantize_reference,
    quantized_dot,
)
from qnnstream.errors import AccumOverflowError, QuantizationError, ShapeError
from qnnstream import quant
from qnnstream.kernels import StreamShape, float_signed_matrix
from qnnstream.oracle import quantize_dense
from qnnstream.quant import (
    ACCUM_BITS,
    CODE_FLOOR_LIMIT,
    FLOAT32_EXACT,
    FLOAT64_EXACT,
    BnQuantizer,
    ThresholdSet,
    WeightBlock,
    check_accum_array,
    check_floor_range,
    count_code_floors,
    floors_as,
    fold_batchnorm,
    pack_words,
    popcount_dot,
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
        assert wb.words.shape == (-(-k * k * in_ch // 64), out_ch)
        flat = np.moveaxis(raw >= 0, 3, 0).reshape(out_ch, -1)
        # word-major: column o holds output channel o
        for col, bits in zip(wb.words.T, flat):
            assert _row_int(col) == _bit_by_bit(bits)
        signed = float_signed_matrix("w", wb, StreamShape(k, k, in_ch, "code", 1))
        assert signed.dtype == np.float32 and signed.shape == (k * k * in_ch, out_ch)
        assert np.array_equal(signed.T, np.where(flat, 1, -1))


def test_weight_block_zero_is_plus_one():
    raw = np.zeros((1, 1, 2, 1), dtype=np.float32)
    wb = WeightBlock.from_float(raw)
    signed = float_signed_matrix("w", wb, StreamShape(1, 1, 2, "code", 1))
    assert np.array_equal(signed.reshape(-1), [1, 1])


def test_weight_block_entry_layout():
    # entry bit j covers flat index (row * k + col) * in_ch + ch
    raw = -np.ones((2, 2, 3, 1), dtype=np.float32)
    raw[1, 0, 2, 0] = 1.0  # flat index (1 * 2 + 0) * 3 + 2 = 8
    wb = WeightBlock.from_float(raw)
    assert wb.words.tolist() == [[1 << 8]]
    # two output channels sit side by side in one word row
    raw = np.concatenate([raw, -raw], axis=3)
    assert WeightBlock.from_float(raw).words.tolist() == [[1 << 8, 0xfff ^ (1 << 8)]]


def test_weight_block_validation():
    with pytest.raises(ShapeError):
        WeightBlock.from_float(np.zeros((3, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        WeightBlock.from_float(np.zeros((3, 5, 1, 1), dtype=np.float32))
    WeightBlock(k=1, in_ch=65, out_ch=3, words=np.zeros((2, 3), dtype=np.uint64))
    # bit 64, the last weight of a 65-bit column, may be set
    WeightBlock(k=1, in_ch=65, out_ch=3,
                words=np.array([[0, 0, 0], [0, 0, 1]], dtype=np.uint64))
    bad_words = (
        np.zeros((3, 2), dtype=np.uint64),  # the old channel-major layout
        np.zeros((2, 2), dtype=np.uint64),  # two columns for three channels
        np.zeros((1, 3), dtype=np.uint64),  # one word for 65 bits
        np.zeros((2, 3), dtype=np.int64),
        np.zeros((2, 3), dtype=">u8"),
        np.zeros((2, 3), dtype=np.uint64, order="F"),
        np.zeros((3, 2), dtype=np.uint64).T,  # a transposed view
        np.array([[0, 0, 0], [0, 2, 0]], dtype=np.uint64),  # bit 65 of a 65-bit column
        [[0, 0, 0], [0, 0, 0]],
    )
    for words in bad_words:
        with pytest.raises(ShapeError):
            WeightBlock(k=1, in_ch=65, out_ch=3, words=words)


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
    # word boundaries and for all-zero and all-max codes; the weights are
    # word-major, one column per output channel
    for length in (1, 63, 64, 65, 128, 199, 4608):
        for n in (1, 2, 3, 8):
            bits = rng.integers(0, 2, (3, length))
            words = np.ascontiguousarray(pack_words(bits).T)
            wb = WeightBlock(k=1, in_ch=length, out_ch=3, words=words)
            rows = [_row_int(col) for col in wb.words.T]
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
    ts = fold_batchnorm(bn_layer([BnChannel(gamma=1.0, mean=13.0, inv_std=1.0, bias=0.0)]),
                        d=4.0, n=2)
    assert ts.values[:, 0].tolist() == [17, 21, 25]
    assert ts.sign.tolist() == [1]
    assert apply_threshold(16, ts) == 0
    assert apply_threshold(17, ts) == 1  # boundary takes the higher code
    assert apply_threshold(18, ts) == 1
    assert apply_threshold(24, ts) == 2
    assert apply_threshold(25, ts) == 3
    assert apply_threshold(10**6, ts) == 3
    assert apply_threshold(-(10**6), ts) == 0


def test_fold_descending_frozen():
    # the descending ladder's floors are -2, 2, 6; the column counts
    # them on -a, negated into ascending order
    ts = fold_batchnorm(bn_layer([BnChannel(gamma=-1.0, mean=0.0, inv_std=1.0, bias=10.0)]),
                        d=4.0, n=2)
    assert ts.values[:, 0].tolist() == [-6, -2, 2]
    assert ts.sign.tolist() == [-1]
    for a in range(-20, 21):
        ref = quantize_reference(batchnorm(a, BnChannel(-1.0, 0.0, 1.0, 10.0)),
                                 4.0, 2)
        assert apply_threshold(a, ts) == ref, a


def test_fold_coarse_step_repeats_thresholds():
    # |step| < 1 collapses several codes onto the same integer threshold
    ts = fold_batchnorm(bn_layer([BnChannel(gamma=8.0, mean=0.0, inv_std=1.0, bias=0.0)]),
                        d=1.0, n=2)
    assert ts.values[:, 0].tolist() == [1, 1, 1]
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
    bn = bn_layer([BnChannel(1.0, 0.0, 1.0, 0.0)])
    with pytest.raises(QuantizationError):
        fold_batchnorm(bn, -1.0, 2)
    with pytest.raises(QuantizationError):
        fold_batchnorm(bn, 1.0, 0)
    with pytest.raises(QuantizationError):
        fold_batchnorm(bn_layer([BnChannel(0.0, 0.0, 1.0, 0.0)]), 1.0, 2)
    with pytest.raises(QuantizationError):
        BnQuantizer(bn_layer([BnChannel(1.0, 0.0, 0.0, 0.0)]), 1.0, 2)


def _threshold_set(sign, columns, n):
    return ThresholdSet(sign=np.array(sign, dtype=np.int64),
                        values=np.array(columns, dtype=np.int64).T.copy(), n=n)


def test_threshold_set_validation():
    with pytest.raises(QuantizationError, match="need 3 thresholds"):
        _threshold_set([1], [[1, 2]], 2)
    with pytest.raises(QuantizationError, match="ascending"):
        _threshold_set([1], [[3, 2, 1]], 2)
    # an inverted channel's column ascends too; its descending floors,
    # as the negative ladder gives them, are refused
    with pytest.raises(QuantizationError, match="ascending"):
        _threshold_set([1, -1], [[17, 21, 25], [6, 2, -2]], 2)
    assert _threshold_set([1, -1], [[17, 21, 25], [-6, -2, 2]], 2).n == 2
    # one column per sign
    with pytest.raises(QuantizationError, match=r"on each of \(2,\) signs, got \(3, 3\)"):
        ThresholdSet(sign=np.ones(2, dtype=np.int64),
                     values=np.zeros((3, 3), dtype=np.int64), n=2)
    for sign, values in ((np.ones(1, dtype=np.int64), np.zeros((3, 1))),
                         (np.ones(1), np.zeros((3, 1), dtype=np.int64)),
                         (np.ones(2, dtype=np.int64),
                          np.zeros((2, 3), dtype=np.int64).T)):
        with pytest.raises(QuantizationError, match="int64"):
            ThresholdSet(sign=sign, values=values, n=2)


# ---------------------------------------------------------------------------
# exact equivalence of the two integer paths

def _params_strategy():
    f = st.floats(min_value=-8.0, max_value=8.0,
                  allow_nan=False, allow_infinity=False)
    pos = st.floats(min_value=1e-3, max_value=8.0,
                    allow_nan=False, allow_infinity=False)
    return st.builds(BnChannel, gamma=f, mean=f, inv_std=pos, bias=f)


@settings(max_examples=150, deadline=None)
@given(p=_params_strategy(),
       d=st.floats(min_value=1e-2, max_value=16.0,
                   allow_nan=False, allow_infinity=False),
       n=st.integers(min_value=1, max_value=3),
       a=st.integers(min_value=-40000, max_value=40000))
def test_threshold_path_equals_exact_quantizer(p, d, n, a):
    assume(p.gamma != 0.0)
    ts = fold_batchnorm(bn_layer([p]), d, n)
    want = bn_code_fraction(a, p, d, n)
    assert apply_threshold(a, ts) == want
    assert BnQuantizer(bn_layer([p]), d, n).quantize_array(np.array([a])).tolist() == [want]


@settings(max_examples=60, deadline=None)
@given(p=_params_strategy(),
       d=st.floats(min_value=1e-2, max_value=16.0,
                   allow_nan=False, allow_infinity=False),
       n=st.integers(min_value=1, max_value=3))
# subnormal gamma: every threshold clamped, to +2**62 and to -2**62
@example(p=BnChannel(gamma=5e-324, mean=0.0, inv_std=1.0, bias=0.0), d=1.0, n=2)
@example(p=BnChannel(gamma=5e-324, mean=0.0, inv_std=1.0, bias=8.0), d=1.0, n=3)
def test_threshold_path_near_every_threshold(p, d, n):
    assume(p.gamma != 0.0)
    ts = fold_batchnorm(bn_layer([p]), d, n)
    # the column counts sign * a, so its thresholds sit at sign * value
    sign = int(ts.sign[0])
    accs = [sign * a for t in ts.values[:, 0].tolist() for a in range(t - 2, t + 3)]
    # past the clamp the column saturates: sign * a at or above 2**62
    # passes every threshold, below -2**62 none
    for a in accs:
        if sign * a >= CODE_FLOOR_LIMIT:
            assert apply_threshold(a, ts) == (1 << n) - 1
        elif sign * a < -CODE_FLOOR_LIMIT:
            assert apply_threshold(a, ts) == 0
    # both paths decide exactly the accumulators of magnitude below
    # 2**62, the folded thresholds' clamp and the array path's range
    accs = [a for a in accs if abs(a) < CODE_FLOOR_LIMIT]
    want = [bn_code_fraction(a, p, d, n) for a in accs]
    assert [apply_threshold(a, ts) for a in accs] == want
    got = BnQuantizer(bn_layer([p]), d, n).quantize_array(np.array(accs, dtype=np.int64))
    assert got.tolist() == want


def test_quantize_array_matches_scalar(rng):
    # one channel's floors broadcast over a map of any shape
    p = BnChannel(gamma=0.37, mean=-2.5, inv_std=1.9, bias=0.41)
    q = BnQuantizer(bn_layer([p]), 1.3, 3)
    accs = rng.integers(-5000, 5000, size=(4, 7))
    out = q.quantize_array(accs)
    assert out.shape == accs.shape
    for idx in np.ndindex(accs.shape):
        assert out[idx] == bn_code_fraction(int(accs[idx]), p, 1.3, 3)


_RANGE_SIZE = st.floats(min_value=1e-3, max_value=16.0)


@settings(max_examples=150, deadline=None)
@given(p=wide_params_strategy(), d=_RANGE_SIZE,
       n=st.integers(min_value=1, max_value=8), data=st.data())
def test_quantize_array_matches_scalar_property(p, d, n, data):
    q = BnQuantizer(bn_layer([p]), d, n)
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
    assert out.dtype == np.uint8 and out.shape == shape
    codes = {a: bn_code_fraction(a, p, d, n) for a in pool}
    assert out.reshape(-1).tolist() == [codes[a] for a in picks]


@settings(max_examples=100, deadline=None)
@given(p=wide_params_strategy(), d=_RANGE_SIZE, n=st.integers(min_value=1, max_value=8))
def test_code_floors_are_tight(p, d, n):
    # floor k is the least sign * a whose code is at least k, and the
    # counting path equals the count of the reference floors around
    # every floor
    q = BnQuantizer(bn_layer([p]), d, n)
    sign, floors = bn_code_floors_fraction(p, d, n)
    assert q.floors.shape == ((1 << n) - 1, 1)
    assert q.sign.tolist() == [sign] and q.floors[:, 0].tolist() == floors
    accs = []
    for k, f in enumerate(floors, start=1):
        if abs(f) >= CODE_FLOOR_LIMIT - 2:
            continue  # clamped: no accumulator in range reaches past it
        assert bn_code_fraction(sign * f, p, d, n) >= k > bn_code_fraction(sign * (f - 1), p, d, n)
        accs += [sign * a for a in range(f - 2, f + 3)]
    want = [sum(sign * a >= f for f in floors) for a in accs]
    assert q.quantize_array(np.array(accs, dtype=np.int64)).tolist() == want


# an inverted channel, and clamped ones of either direction
_EDGE_PARAMS = st.sampled_from([
    BnChannel(gamma=-0.75, mean=3.25, inv_std=1.5, bias=-7.0),
    BnChannel(gamma=1.0, mean=0.5, inv_std=5e-324, bias=1e-3),
    BnChannel(gamma=-3.0, mean=-1.0, inv_std=1e-310, bias=2.5),
])


@settings(max_examples=100, deadline=None)
@given(ps=st.lists(st.one_of(wide_params_strategy(), _EDGE_PARAMS), min_size=1, max_size=4),
       d=_RANGE_SIZE, n=st.integers(min_value=1, max_value=8), data=st.data())
def test_count_code_floors_matches_both_references(ps, d, n, data):
    # the one counter, fed the engine's folded thresholds and the
    # oracle's floors, equals apply_threshold and bn_code_fraction on
    # every layout the stages and the oracle use:
    # channels last over rows or a map, or one channel broadcast over all
    c = len(ps)
    shape = data.draw(st.sampled_from([
        (0,), (1, c), (data.draw(st.integers(2, 6)), c),
        (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), c),
        (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))]))
    if shape[-1] != c:
        ps = ps[:1]  # one channel's floors broadcast over every element
    ts = fold_batchnorm(bn_layer(ps), d, n)
    lim = CODE_FLOOR_LIMIT - 1
    # every threshold and one either side, as accumulators: sign * value
    pool = [-lim, lim, 0] + [min(max(s * v + off, -lim), lim)
                             for s, column in zip(ts.sign.tolist(), ts.values.T.tolist())
                             for v in column for off in (-1, 0, 1)]
    picks = data.draw(st.lists(st.sampled_from(pool) | st.integers(-40000, 40000),
                               min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    accs = np.array(picks, dtype=np.int64).reshape(shape)
    chans = [idx[-1] % len(ps) for idx in np.ndindex(shape)]
    engine = count_code_floors(accs, ts.sign, ts.values)
    quantize = (lambda y: quantize_dense(y, bn_layer(ps), d, n)) if len(ps) > 1 else \
        BnQuantizer(bn_layer(ps), d, n).quantize_array
    oracle = quantize(accs)
    for got in (engine, oracle):
        assert got.dtype == np.uint8 and got.shape == shape
    assert engine.reshape(-1).tolist() == [apply_threshold(a, ts, j)
                                           for a, j in zip(picks, chans)]
    assert oracle.reshape(-1).tolist() == [bn_code_fraction(a, ps[j], d, n)
                                           for a, j in zip(picks, chans)]
    # counted in an exact float, the accumulators it holds (the rest set
    # to 0) get their int64 codes on both sides
    for dtype, limit in ((np.float32, FLOAT32_EXACT), (np.float64, FLOAT64_EXACT)):
        held = np.where(np.abs(accs) < limit, accs, 0)
        as_float = held.astype(dtype)
        assert np.array_equal(
            count_code_floors(as_float, *floors_as(dtype, ts.sign, ts.values)),
            count_code_floors(held, ts.sign, ts.values))
        assert np.array_equal(quantize(as_float), quantize(held))


@pytest.mark.parametrize("dtype, limit", [(np.float32, FLOAT32_EXACT),
                                          (np.float64, FLOAT64_EXACT)],
                         ids=["float32", "float64"])
def test_float_count_equals_int64_count(dtype, limit):
    # accumulators the float holds, up to the last integer below the
    # first one it cannot, against floors either side of that integer
    # and at the clamp: counted in the float against the floors rounded
    # to it, where limit + 1 becomes limit, each code is the int64 one
    assert dtype(limit + 1) == limit and dtype(limit - 1) != limit
    edge = [limit - 1, limit, limit + 1, limit + 2, CODE_FLOOR_LIMIT]
    column = sorted(edge + [-f for f in edge])
    floors = np.array([column, column], dtype=np.int64).T.copy()
    sign = np.array([1, -1], dtype=np.int64)
    held = [0, 1, -1, limit - 1, 1 - limit]
    accs = np.array([[a, a] for a in held], dtype=np.int64)
    want = [[sum(s * a >= f for f in column) for s in (1, -1)] for a in held]
    assert count_code_floors(accs, sign, floors).tolist() == want
    rounded = floors_as(dtype, sign, floors)
    assert [a.dtype for a in rounded] == [dtype, dtype]
    got = count_code_floors(accs.astype(dtype), *rounded)
    assert got.dtype == np.uint8 and got.tolist() == want
    # check_floor_range keeps the float and refuses what it cannot decide
    assert check_floor_range(accs.astype(dtype)).dtype == dtype
    for bad in (limit, -limit, float("nan")):
        with pytest.raises(QuantizationError):
            check_floor_range(np.array([0, bad], dtype=dtype))


def _random_channels(rng, count):
    return [BnChannel(gamma=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
                      mean=float(rng.uniform(-50, 50)), inv_std=float(rng.uniform(0.5, 2.0)),
                      bias=float(rng.uniform(-3, 3))) for _ in range(count)]


def test_count_code_floors_in_blocks(rng, monkeypatch):
    # blocks too small for one level, then of 4 levels with a shorter
    # last block (255 = 63 * 4 + 3): 8-bit codes count as in one block
    n, d = 8, 10.0
    ps = _random_channels(rng, 5)
    ts = fold_batchnorm(bn_layer(ps), d, n)
    accs = rng.integers(-3000, 3000, size=(6, 4, 5))
    want = [[[bn_code_fraction(a, p, d, n) for a, p in zip(px, ps)] for px in row]
            for row in accs.tolist()]
    assert len({code for row in want for px in row for code in px}) > 30
    for block in (7, 4 * accs.size):
        monkeypatch.setattr(quant, "COUNT_BLOCK_BYTES", block)
        assert count_code_floors(accs, ts.sign, ts.values).tolist() == want
        assert quantize_dense(accs, bn_layer(ps), d, n).tolist() == want


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64],
                         ids=["int64", "float32", "float64"])
def test_count_ignores_floors_layout(rng, dtype):
    # a conv's table comes laid out as (levels, 1, C), a join compares a
    # column slice of it against a chunk inside one pixel, the oracle
    # hands over (levels, C), and one quantizer an int and a tuple: every
    # form counts the same codes in the same dtype
    n, d = 3, 4.0
    ps = _random_channels(rng, 6)
    ts = fold_batchnorm(bn_layer(ps), d, n)
    sign, floors = floors_as(dtype, ts.sign, ts.values)
    held = rng.integers(-150, 150, size=(5, 6))
    accs = held.astype(dtype)
    want = count_code_floors(accs, sign, floors)
    assert want.dtype == np.uint8
    assert want.tolist() == [[bn_code_fraction(a, p, d, n) for a, p in zip(row, ps)]
                             for row in held.tolist()]
    shaped = floors.reshape(len(floors), 1, -1)
    got = count_code_floors(accs, sign, shaped)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for head, size in ((0, 1), (2, 3), (5, 1), (0, 6)):
        cols = slice(head, head + size)
        for table in (floors[:, cols], shaped[:, 0, cols]):
            assert table.flags.c_contiguous == (size == 6)
            got = count_code_floors(accs[1, cols], sign[cols], table)
            assert got.dtype == want.dtype and np.array_equal(got, want[1, cols])
    for j in range(6):
        got = count_code_floors(accs[:, j], sign[j].item(), tuple(floors[:, j].tolist()))
        assert got.dtype == want.dtype and np.array_equal(got, want[:, j])


@settings(max_examples=150, deadline=None)
@given(p=wide_params_strategy(), d=_RANGE_SIZE, n=st.integers(min_value=1, max_value=8))
# negative gamma: a descending ladder, stored inverted
@example(p=BnChannel(gamma=-0.75, mean=3.25, inv_std=1.5, bias=-7.0), d=0.5, n=3)
# subnormal inv_std: thresholds far past int64
@example(p=BnChannel(gamma=1.0, mean=0.5, inv_std=5e-324, bias=1e-3), d=2.0, n=2)
@example(p=BnChannel(gamma=-3.0, mean=-1.0, inv_std=1e-310, bias=2.5), d=1e-3, n=4)
# gamma * inv_std is zero as a float product but not as a rational, of
# either sign
@example(p=BnChannel(gamma=1e-300, mean=0.0, inv_std=1e-300, bias=0.0), d=1.0, n=2)
@example(p=BnChannel(gamma=-5e-324, mean=-7.5, inv_std=5e-324, bias=3.0), d=1e-3, n=2)
# |step| < 1: several codes round to the same integer threshold
@example(p=BnChannel(gamma=7.0, mean=0.3, inv_std=2.0, bias=0.1), d=1.0, n=8)
# float64 rounding crosses an integer: bias / p = -1e-20 is lost when t
# is rounded, so the candidates are integers one short of the thresholds
# [5, 6, 7] (sign 1) and [-1, 0, 1] (sign -1), and are derived exactly
@example(p=BnChannel(gamma=1.0, mean=3.0, inv_std=1.0, bias=-1e-20), d=1.0, n=2)
@example(p=BnChannel(gamma=-1.0, mean=3.0, inv_std=1.0, bias=-1e-20), d=1.0, n=2)
# 3 * float(1/3) rounds up to p = 1.0 from just below it, so threshold
# alpha lies just past its candidate alpha: a bound too small to outlast
# the rounding of x_alpha +/- err_alpha would keep alpha
@example(p=BnChannel(gamma=3.0, mean=0.0, inv_std=1 / 3, bias=0.0), d=1.0, n=2)
def test_fold_equals_fraction_fold(p, d, n):
    ts = fold_batchnorm(bn_layer([p]), d, n)
    ref = fold_batchnorm_fraction(bn_layer([p]), d, n)
    assert ts.n == ref.n == n
    assert ts.sign.tolist() == ref.sign.tolist()
    assert ts.values.tolist() == ref.values.tolist()
    assert ts.sign.dtype == ts.values.dtype == np.int64 and ts.values.flags.c_contiguous


def test_fold_refines_candidates_near_integers():
    # the float64 candidates of both channels are integers, a plain ceil
    # of them is one short of every threshold, and the fold derives the
    # channels exactly
    ps = [BnChannel(gamma=1.0, mean=3.0, inv_std=1.0, bias=-1e-20),
          BnChannel(gamma=-1.0, mean=3.0, inv_std=1.0, bias=-1e-20)]
    ts = fold_batchnorm(bn_layer(ps), 1.0, 2)
    assert ts.sign.tolist() == [1, -1]
    assert ts.values.T.tolist() == [[5, 6, 7], [-1, 0, 1]]
    # sign * mean - bias / |gamma * inv_std|, rounded, then plus alpha * d
    t = np.array([3.0, -3.0]) + 1e-20
    assert np.ceil(t + np.arange(1, 4)[:, None]).T.tolist() == [[4, 5, 6], [-2, -1, 0]]


def _near_integer_params():
    # thresholds at integers, give or take far less than one float64
    # rounding: power-of-two gamma and inv_std, an integer mean, and a
    # bias of zero or tiny against them
    power = st.integers(-6, 6).map(lambda k: 2.0 ** k)
    gamma = st.builds(lambda sign, g: sign * g, st.sampled_from([-1.0, 1.0]), power)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    bias = st.sampled_from([0.0, 2.0 ** -60, -2.0 ** -60, 1e-20, -1e-20, tiny, -tiny])
    return st.builds(BnChannel, gamma=gamma, mean=st.integers(-50, 50).map(float),
                     inv_std=power, bias=bias)


@settings(max_examples=100, deadline=None)
@given(ps=st.lists(_near_integer_params(), min_size=1, max_size=6),
       d=st.integers(1, 8).map(float), n=st.integers(min_value=1, max_value=4))
def test_fold_near_integers_equals_fraction_fold(ps, d, n):
    # with an integer d as well, most candidates are within their error
    # bound of an integer: the exact refinement decides them
    ts = fold_batchnorm(bn_layer(ps), d, n)
    ref = fold_batchnorm_fraction(bn_layer(ps), d, n)
    assert ts.sign.tolist() == ref.sign.tolist()
    assert ts.values.tolist() == ref.values.tolist()


@pytest.mark.parametrize("p, d, n", [
    (BnChannel(1.0, 0.0, 1.0, 0.0), 0.0, 2),
    (BnChannel(1.0, 0.0, 1.0, 0.0), -1.5, 2),
    (BnChannel(1.0, 0.0, 1.0, 0.0), 1.0, 0),
    (BnChannel(0.0, 0.0, 1.0, 0.0), 1.0, 2),
    (BnChannel(-0.0, 2.0, 3.0, 1.0), 1.0, 2),
    (BnChannel(2.0, 2.0, 0.0, 1.0), 1.0, 2),
], ids=["d_zero", "d_negative", "n_zero", "gamma_zero", "gamma_negzero",
        "inv_std_zero"])
def test_fold_errors_equal_fraction_fold(p, d, n):
    # alone, and as the last channel of a layer whose first is sound
    good = BnChannel(1.5, 0.25, 2.0, -1.0)
    for bn in (bn_layer([p]), bn_layer([good, p])):
        with pytest.raises(QuantizationError) as ref:
            fold_batchnorm_fraction(bn, d, n)
        with pytest.raises(QuantizationError) as got:
            fold_batchnorm(bn, d, n)
        assert str(got.value) == str(ref.value)


@settings(max_examples=150, deadline=None)
@given(p=wide_params_strategy(), d=_RANGE_SIZE)
# gamma * inv_std is zero as a float product but not as a rational, of
# either sign
@example(p=BnChannel(gamma=1e-300, mean=0.0, inv_std=1e-300, bias=0.0), d=1.0)
@example(p=BnChannel(gamma=-5e-324, mean=-7.5, inv_std=5e-324, bias=3.0), d=1e-3)
def test_quantizer_coefficients_equal_fraction_derivation(p, d):
    # the dyadic coefficients decide as the rationals do: one channel's
    # sign is that of the exact gamma * inv_std, its floors the Fraction
    # rule's
    q = BnQuantizer(bn_layer([p]), d, 2)
    assert q.sign.tolist() == [1 if Fraction(p.gamma) * Fraction(p.inv_std) > 0 else -1]
    assert q.floors[:, 0].tolist() == bn_code_floors_fraction(p, d, 2)[1]


def _layer_equals_fraction(ps, d, n):
    q = BnQuantizer(bn_layer(ps), d, n)
    refs = [bn_code_floors_fraction(p, d, n) for p in ps]
    assert q.sign.dtype == np.int64 and q.floors.dtype == np.int64
    assert q.sign.shape == (len(ps),) and q.floors.shape == ((1 << n) - 1, len(ps))
    assert q.sign.tolist() == [sign for sign, _ in refs]
    for column, (_, floors) in zip(q.floors.T.tolist(), refs):
        assert column == floors


def _negated_inv_std(p):
    return p._replace(inv_std=-p.inv_std)


_LAYER = st.lists(st.one_of(wide_params_strategy(), _EDGE_PARAMS,
                            wide_params_strategy().map(_negated_inv_std)),
                  min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(ps=_LAYER, d=_RANGE_SIZE, n=st.integers(min_value=1, max_value=8))
def test_layer_floors_equal_fraction_property(ps, d, n):
    # a whole layer in one pass: every channel's sign and floor column
    # equal the Fraction rule's, subnormal, clamped and inverted ones
    # too, with the sign of gamma or of inv_std negative
    _layer_equals_fraction(ps, d, n)


@settings(max_examples=100, deadline=None)
@given(ps=_LAYER, d=_RANGE_SIZE, n=st.integers(min_value=1, max_value=8))
@example(ps=[BnChannel(gamma=1.0, mean=13.0, inv_std=1.0, bias=0.0),
             BnChannel(gamma=-1.0, mean=0.0, inv_std=1.0, bias=10.0),
             BnChannel(gamma=1.0, mean=0.0, inv_std=-1.0, bias=10.0)], d=4.0, n=2)
# channels whose candidates are ambiguous among easy ones: the exact
# columns replace theirs and every column ascends
@example(ps=[BnChannel(gamma=1.5, mean=0.25, inv_std=2.0, bias=-1.0),
             BnChannel(gamma=1.0, mean=3.0, inv_std=1.0, bias=-1e-20),
             BnChannel(gamma=-0.75, mean=3.25, inv_std=1.5, bias=-7.0),
             BnChannel(gamma=-1.0, mean=3.0, inv_std=1.0, bias=-1e-20),
             BnChannel(gamma=3.0, mean=0.0, inv_std=1 / 3, bias=0.0),
             BnChannel(gamma=0.5, mean=-2.5, inv_std=1.25, bias=0.5)], d=1.0, n=2)
def test_fold_columns_ascend_on_inverted_channels(ps, d, n):
    # a whole layer folds in one pass into ascending columns, an inverted
    # channel's (negative gamma or inv_std) too: each equals the
    # channel-by-channel Fraction fold and the oracle's floors, derived
    # apart, and ThresholdSet refuses the layer's columns reversed
    ts = fold_batchnorm(bn_layer(ps), d, n)
    ref = fold_batchnorm_fraction(bn_layer(ps), d, n)
    q = BnQuantizer(bn_layer(ps), d, n)
    assert ts.values.shape == ((1 << n) - 1, len(ps)) and ts.values.flags.c_contiguous
    assert (ts.values[1:] >= ts.values[:-1]).all()
    assert ts.sign.tolist() == ref.sign.tolist() == q.sign.tolist()
    assert ts.values.tolist() == ref.values.tolist() == q.floors.tolist()
    if n > 1 and (ts.values[-1] > ts.values[0]).any():
        with pytest.raises(QuantizationError, match="ascending"):
            ThresholdSet(sign=ts.sign, values=ts.values[::-1].copy(), n=n)


def test_layer_floors_frozen():
    # the frozen fold cases, as floors: exact integer boundaries, an
    # inverted channel by a negative gamma and by a negative inv_std
    ps = [BnChannel(gamma=1.0, mean=13.0, inv_std=1.0, bias=0.0),
          BnChannel(gamma=-1.0, mean=0.0, inv_std=1.0, bias=10.0),
          BnChannel(gamma=1.0, mean=0.0, inv_std=-1.0, bias=10.0)]
    q = BnQuantizer(bn_layer(ps), 4.0, 2)
    assert q.sign.tolist() == [1, -1, -1]
    assert q.floors.T.tolist() == [[17, 21, 25], [-6, -2, 2], [-6, -2, 2]]
    # k * D - C one unit past a multiple of |A|: the last floor rounds up
    e = 1 + 2**-52
    p = BnChannel(gamma=e, mean=e, inv_std=e, bias=1.0)
    assert bn_code_floors_fraction(p, e, 2) == (1, [2, 3, 4])
    assert BnQuantizer(bn_layer([p]), e, 2).floors[:, 0].tolist() == [2, 3, 4]


@pytest.mark.parametrize("channels", [1, 512])
def test_layer_floors_equal_fraction_fixed(channels, rng):
    # float32 parameters, as load_params gives them, over wide magnitudes
    draws = rng.standard_normal((channels, 4)) * 10.0 ** rng.integers(-40, 30, (channels, 4))
    g, m, i, b = np.float32(draws).T.tolist()
    ps = [BnChannel(gamma=gv or 1.0, mean=mv, inv_std=abs(iv) or 1.0, bias=bv)
          for gv, mv, iv, bv in zip(g, m, i, b)]
    for d, n in ((0.37, 2), (1e-3, 3), (2.5, 8)):
        _layer_equals_fraction(ps if n < 8 else ps[:64], d, n)


_GOOD = BnChannel(gamma=1.5, mean=0.25, inv_std=2.0, bias=-1.0)


def _layer_with_bad_last(bad):
    return bn_layer([_GOOD, _GOOD._replace(**bad)])


@pytest.mark.parametrize("bad, d", [
    ({}, 0.0), ({}, -1.5), ({"gamma": 0.0}, 1.0), ({"gamma": -0.0}, 1.0),
    ({"inv_std": 0.0}, 1.0),
], ids=["d_zero", "d_negative", "gamma_zero", "gamma_negzero", "inv_std_zero"])
def test_quantizer_errors_equal_fraction_rule(bad, d):
    # a bad last channel fails the whole layer with the Fraction rule's
    # error
    with pytest.raises(QuantizationError) as ref:
        bn_code_floors_fraction(_GOOD._replace(**bad), d, 2)
    with pytest.raises(QuantizationError) as got:
        BnQuantizer(_layer_with_bad_last(bad), d, 2)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("bad, d", [
    ({}, float("nan")), ({}, float("inf")), ({"gamma": float("nan")}, 1.0),
    ({"inv_std": float("inf")}, 1.0), ({"mean": float("-inf")}, 1.0),
    ({"bias": float("nan")}, 1.0),
], ids=["d_nan", "d_inf", "gamma_nan", "inv_std_inf", "mean_neginf", "bias_nan"])
def test_quantizer_refuses_non_finite(bad, d):
    # no float ratio and no mantissa exists for these: a QuantizationError,
    # not an OverflowError or a floor from a garbage mantissa
    with pytest.raises(QuantizationError):
        BnQuantizer(_layer_with_bad_last(bad), d, 2)


def test_quantizer_subnormal_pair_is_not_degenerate():
    # gamma * inv_std underflows to 0.0 as floats; the mantissa product
    # does not, and the channel quantizes by the rational rule
    p = BnChannel(gamma=-5e-324, mean=0.0, inv_std=5e-324, bias=2.0)
    assert p.gamma * p.inv_std == 0.0
    _layer_equals_fraction([p], 1.0, 2)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "neginf", "nan"])
@pytest.mark.parametrize("field", ["gamma", "mean", "inv_std", "bias", "d"])
def test_fold_refuses_non_finite(field, value):
    # a QuantizationError, not the OverflowError or ValueError a float
    # ratio of these raises
    bad, d = ({}, value) if field == "d" else ({field: value}, 1.0)
    with pytest.raises(QuantizationError):
        fold_batchnorm(_layer_with_bad_last(bad), d, 2)


def test_fold_clamps_candidates_alone(monkeypatch):
    # thresholds past +/- CODE_FLOOR_LIMIT on every channel: the clamped
    # float64 candidates decide each one, and the exact derivation is
    # never asked
    def refuse(*args):
        raise AssertionError("refined a channel the clamp decides")

    monkeypatch.setattr(quant, "BnQuantizer", refuse)
    ps = [BnChannel(gamma=g, mean=m, inv_std=1.0, bias=0.0)
          for g in (1.0, -1.0) for m in (1e30, -1e30)]
    ts = fold_batchnorm(bn_layer(ps), 1.0, 2)
    assert ts.sign.tolist() == [1, 1, -1, -1]
    lim = CODE_FLOOR_LIMIT
    assert ts.values.T.tolist() == [[lim] * 3, [-lim] * 3, [-lim] * 3, [lim] * 3]


@pytest.mark.parametrize("block", [None, 7, 4 * 120], ids=["one", "per_level", "four"])
def test_count_code_floors_255_levels(block, rng, monkeypatch):
    # 8-bit codes: 255 levels, the most a uint8 count holds; in one
    # block, then over 120 accumulators in blocks too small for one
    # level, or of 4 levels with a shorter last block (255 = 63 * 4 + 3)
    n, d = 8, 0.5
    ps = _random_channels(rng, 3)
    ts = fold_batchnorm(bn_layer(ps), d, n)
    thresholds = ts.values * ts.sign  # each channel's, in accumulator terms
    lo, hi = int(thresholds.min()), int(thresholds.max())
    accs = rng.integers(lo - 20, hi + 20, size=(40, 3))
    accs[0] = lo - 20  # every level below, for every channel
    accs[1] = hi + 20  # and above
    if block:
        monkeypatch.setattr(quant, "COUNT_BLOCK_BYTES", block)
    got = count_code_floors(accs, ts.sign, ts.values)
    assert got.dtype == np.uint8
    want = [[apply_threshold(a, ts, j) for j, a in enumerate(row)] for row in accs.tolist()]
    assert got.tolist() == want
    assert {0, 255} <= {code for row in want for code in row}


def test_accum_bits_constant():
    assert ACCUM_BITS == 16
