import numpy as np
import pytest

from conftest import drive_stage
from qnnstream.engine import Fifo
from qnnstream.errors import BufferEvictionError, ShapeError
from qnnstream.kernels import (
    AvgPoolStage,
    ConvStage,
    FcStage,
    FirstConvStage,
    LineBuffer,
    MaxPoolStage,
    ResidualJoinStage,
    SkipDownsampleStage,
    StreamShape,
    TeeWidenStage,
    apply_threshold_matrix,
    build_threshold_matrix,
    float_signed_matrix,
    line_buffer_capacity,
    width_first_capacity,
)
from qnnstream.oracle import (
    dense_avgpool,
    dense_conv,
    dense_maxpool,
    dense_skip_adapt,
    quantize_dense,
)
from qnnstream.quant import (
    BnParams,
    WeightBlock,
    apply_threshold,
    fold_batchnorm,
)


def _random_bn(rng, o, allow_negative=True):
    lo = -2.0 if allow_negative else 0.1
    out = []
    while len(out) < o:
        g = float(rng.uniform(lo, 2.0))
        if abs(g) < 1e-3:
            continue
        out.append(BnParams(gamma=g, mean=float(rng.uniform(-4, 4)),
                            inv_std=float(rng.uniform(0.2, 2.0)),
                            bias=float(rng.uniform(-3, 3))))
    return out


def _thresholds(bns, d, n):
    return [fold_batchnorm(p, d, n) for p in bns]


def _out_hw(h, w, k, s, p):
    return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


def _drive(make_stage, in_data, skip_data=None):
    """Run fresh stages from make_stage with ample FIFOs and with FIFOs of
    capacity 1; both schedules must give the same output streams and the
    same structural counters."""
    roomy, narrow = make_stage(), make_stage()
    ample = drive_stage(roomy, in_data, skip_data)
    tight = drive_stage(narrow, in_data, skip_data, capacity=1)
    for a, b in zip(ample, tight):
        assert (a is None and b is None) or np.array_equal(a, b)
    for counter in ("real_el", "pad_el", "compute_cycles", "fill_el"):
        assert getattr(roomy, counter) == getattr(narrow, counter), counter
    return ample


# ---------------------------------------------------------------------------
# buffer sizing

def test_line_buffer_capacity_frozen():
    assert line_buffer_capacity(2, 7, 3) == 34
    assert line_buffer_capacity(64, 116, 7) == 64 * (116 * 6 + 7)
    assert line_buffer_capacity(1, 5, 1) == 1


def test_depth_first_beats_width_first(rng):
    # once the image is at least K lines tall, scanning channel-fastest
    # needs no more storage than scanning plane by plane
    for _ in range(200):
        k = int(rng.choice([1, 3, 5, 7]))
        c = int(rng.integers(1, 9))
        h = int(rng.integers(k, 33))
        line = int(rng.integers(k, 33))
        assert line_buffer_capacity(c, line, k) <= \
            width_first_capacity(line, h, c, k)


def test_line_buffer_gather_and_eviction():
    lb = LineBuffer(4, "t")
    lb.push(np.arange(6, dtype=np.int32))
    assert np.array_equal(lb.gather(np.array([2, 3, 4, 5])), [2, 3, 4, 5])
    with pytest.raises(BufferEvictionError):
        lb.gather(np.array([1]))
    with pytest.raises(ShapeError):
        lb.gather(np.array([6]))
    with pytest.raises(ShapeError):
        LineBuffer(0)
    # a batch of windows, one per row, read from a ring with slack: the
    # ring position of element 10 wraps to the front
    lb = LineBuffer(4, "t", slack=3)
    lb.push(np.arange(5, dtype=np.int32))
    lb.push(np.arange(5, 12, dtype=np.int32))
    got = lb.gather(np.array([[5, 6, 7], [8, 9, 10], [9, 10, 11]]))
    assert got.tolist() == [[5, 6, 7], [8, 9, 10], [9, 10, 11]]
    # a window wider than capacity faults even though the ring holds it
    with pytest.raises(BufferEvictionError):
        lb.gather(np.array([[6, 7, 8, 9, 10]]))
    # the first window is late: its elements have left the ring
    with pytest.raises(BufferEvictionError):
        lb.gather(np.array([[3, 4], [10, 11]]))


def test_threshold_matrix_matches_scalar(rng):
    bns = _random_bn(rng, 12)
    sets = _thresholds(bns, 1.7, 2)
    mat, sign = build_threshold_matrix(sets)
    accs = rng.integers(-2000, 2000, size=12)
    got = apply_threshold_matrix(accs, mat, sign)
    for j, ts in enumerate(sets):
        assert got[j] == apply_threshold(int(accs[j]), ts)
    # every channel at each of its thresholds and one either side
    assert {ts.inverted for ts in sets} == {False, True}
    at = np.array([[ts.values[i] + off for ts in sets]
                   for i in range(len(sets[0].values)) for off in (-1, 0, 1)])
    got = apply_threshold_matrix(at, mat, sign)
    for row, codes in zip(at, got):
        for j, ts in enumerate(sets):
            assert codes[j] == apply_threshold(int(row[j]), ts)


def test_threshold_matrix_clamps_huge_values():
    # a microscopic scale makes thresholds overflow int64; the clamp must
    # keep every comparison against realistic accumulators intact
    p = BnParams(gamma=1e-30, mean=0.0, inv_std=1.0, bias=-1.0)
    ts = fold_batchnorm(p, 1.0, 1)
    mat, sign = build_threshold_matrix([ts, ts])
    accs = np.array([-30000, 30000])
    got = apply_threshold_matrix(accs, mat, sign)
    assert got[0] == apply_threshold(-30000, ts)
    assert got[1] == apply_threshold(30000, ts)


# ---------------------------------------------------------------------------
# windowed stages against the dense reference

def _conv_case(rng, k, s, p, fused=True):
    n = int(rng.integers(1, 4))
    c = int(rng.integers(1, 5))
    o = int(rng.integers(1, 5))
    h = int(rng.integers(max(2, k - 2 * p), k - 2 * p + 6))
    w = int(rng.integers(max(2, k - 2 * p), k - 2 * p + 6))
    oh, ow = _out_hw(h, w, k, s, p)
    x = rng.integers(0, 1 << n, size=(h, w, c))
    raw = rng.standard_normal((k, k, c, o)).astype(np.float32)
    in_shape = StreamShape(h, w, c, "code", n)
    if fused:
        d = float(rng.uniform(0.5, 4.0))
        bns = _random_bn(rng, o)
        out_shape = StreamShape(oh, ow, o, "code", 2)
        thresholds = _thresholds(bns, d, 2)
        ref = quantize_dense(dense_conv(x, raw, s, p), bns, d, 2)
    else:
        out_shape = StreamShape(oh, ow, o, "accum", 16)
        thresholds = None
        ref = dense_conv(x, raw, s, p)

    def make():
        return ConvStage("cv", in_shape, out_shape, WeightBlock.from_float(raw),
                         s, p, thresholds=thresholds)
    return make, x, ref


@pytest.mark.parametrize("k,s,p", [(1, 1, 0), (3, 1, 1), (3, 2, 1),
                                   (5, 2, 0), (7, 1, 3), (11, 4, 3)])
def test_conv_stage_matches_dense(rng, k, s, p):
    for fused in (True, False):
        make, x, ref = _conv_case(rng, k, s, p, fused)
        out, _ = _drive(make, x.reshape(-1))
        assert np.array_equal(out, ref.reshape(-1))


def test_first_conv_stage_matches_dense(rng):
    for k, s, p in ((3, 1, 1), (5, 2, 2), (7, 2, 3)):
        c = int(rng.integers(1, 4))
        o = int(rng.integers(1, 5))
        h, w = int(rng.integers(k, k + 5)), int(rng.integers(k, k + 5))
        x = rng.integers(0, 256, size=(h, w, c))
        raw = rng.standard_normal((k, k, c, o)).astype(np.float32)
        bns = _random_bn(rng, o)
        oh, ow = _out_hw(h, w, k, s, p)
        out, _ = _drive(lambda: FirstConvStage(
            "fc0", StreamShape(h, w, c, "u8", 8), StreamShape(oh, ow, o, "code", 2),
            WeightBlock.from_float(raw), s, p, thresholds=_thresholds(bns, 2.0, 2)),
            x.reshape(-1))
        ref = quantize_dense(dense_conv(x, raw, s, p), bns, 2.0, 2)
        assert np.array_equal(out, ref.reshape(-1))


def test_maxpool_frozen_values():
    x = np.arange(1, 17).reshape(4, 4, 1)
    out, _ = _drive(lambda: MaxPoolStage("mp", StreamShape(4, 4, 1, "code", 3),
                                         StreamShape(2, 2, 1, "code", 3), 2, 2),
                    x.reshape(-1))
    assert out.tolist() == [6, 8, 14, 16]


def test_maxpool_matches_dense(rng):
    for k, s, p in ((2, 2, 0), (3, 2, 1), (3, 1, 0)):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(k + 1, 9)), int(rng.integers(k + 1, 9))
        x = rng.integers(0, 8, size=(h, w, c))
        oh, ow = _out_hw(h, w, k, s, p)
        out, _ = _drive(lambda: MaxPoolStage("mp", StreamShape(h, w, c, "code", 3),
                                             StreamShape(oh, ow, c, "code", 3), k, s, p),
                        x.reshape(-1))
        assert np.array_equal(out, dense_maxpool(x, k, s, p).reshape(-1))


def test_avgpool_rounds_half_away_from_zero():
    def make():
        return AvgPoolStage("ap", StreamShape(2, 2, 1, "accum", 16),
                            StreamShape(1, 1, 1, "accum", 16), 2, 2)
    out, _ = _drive(make, np.array([1, 2, 3, 4]))
    assert out.tolist() == [3]  # 10/4 = 2.5 rounds up
    out, _ = _drive(make, np.array([-1, -2, -3, -4]))
    assert out.tolist() == [-3]  # -2.5 rounds away from zero


def test_avgpool_matches_dense(rng):
    for k, s, p in ((2, 2, 0), (3, 1, 1), (7, 7, 0)):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(max(2, k - 2 * p), k + 5))
        w = int(rng.integers(max(2, k - 2 * p), k + 5))
        x = rng.integers(-40, 40, size=(h, w, c))
        oh, ow = _out_hw(h, w, k, s, p)
        out, _ = _drive(lambda: AvgPoolStage("ap", StreamShape(h, w, c, "accum", 16),
                                             StreamShape(oh, ow, c, "accum", 16), k, s, p),
                        x.reshape(-1))
        assert np.array_equal(out, dense_avgpool(x, k, s, p).reshape(-1))


# ---------------------------------------------------------------------------
# eviction discipline: the exact capacity works, one less faults

@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_capacity_is_tight(rng, k):
    for _ in range(3):
        p = int(rng.integers(0, 2))
        s = int(rng.choice([1, 2]))
        c = int(rng.integers(1, 4))
        h = int(rng.integers(k + 1, k + 6))
        w = int(rng.integers(k + 1, k + 6))
        x = rng.integers(0, 4, size=(h, w, c))
        raw = rng.standard_normal((k, k, c, 2)).astype(np.float32)
        oh, ow = _out_hw(h, w, k, s, p)
        cap = line_buffer_capacity(c, w + 2 * p, k)
        for delta, ok in ((0, True), (-1, False)):
            stage = ConvStage("cv", StreamShape(h, w, c, "code", 2),
                              StreamShape(oh, ow, 2, "accum", 16),
                              WeightBlock.from_float(raw), s, p,
                              buffer_capacity=cap + delta)
            if ok:
                out, _ = drive_stage(stage, x.reshape(-1))
                assert np.array_equal(out, dense_conv(x, raw, s, p).reshape(-1))
            else:
                with pytest.raises(BufferEvictionError):
                    drive_stage(stage, x.reshape(-1))


# ---------------------------------------------------------------------------
# residual plumbing

def test_join_adds_and_requantizes(rng):
    o, n = 3, 2
    shape = StreamShape(3, 3, o, "code", n)
    bns = _random_bn(rng, o)
    d = 1.9
    accs = rng.integers(-300, 300, size=(3, 3, o))
    skip = rng.integers(-300, 300, size=(3, 3, o))
    out, skip_out = _drive(
        lambda: ResidualJoinStage("jn", shape, _thresholds(bns, d, n), n),
        accs.reshape(-1), skip_data=skip.reshape(-1))
    total = accs + skip
    assert np.array_equal(skip_out, total.reshape(-1))
    assert np.array_equal(out, quantize_dense(total, bns, d, n).reshape(-1))


def test_tee_duplicates_codes(rng):
    shape = StreamShape(2, 3, 2, "code", 2)
    x = rng.integers(0, 4, size=12)
    out, skip_out = _drive(lambda: TeeWidenStage("tee", shape), x)
    assert np.array_equal(out, x)
    assert np.array_equal(skip_out, x)


def test_skip_downsample_matches_dense(rng):
    # at capacity 1 a kept pixel arrives element by element, so its last
    # element and the zero fill leave together
    for s, c, o in ((2, 2, 3), (1, 2, 5), (2, 2, 2), (2, 3, 7)):
        h = w = 4
        x = rng.integers(-100, 100, size=(h, w, c))
        oh = (h - 1) // s + 1
        out, _ = _drive(lambda: SkipDownsampleStage(
            "ss", StreamShape(h, w, c, "accum", 16),
            StreamShape(oh, oh, o, "accum", 16), s), x.reshape(-1))
        assert np.array_equal(out, dense_skip_adapt(x, s, o).reshape(-1))


def test_two_output_stage_does_not_serialize():
    # one blocked output queue must not hold back the other: a fork whose
    # skip consumer lags still has to keep feeding the compute path
    shape = StreamShape(1, 4, 1, "code", 2)
    stage = TeeWidenStage("tee", shape)
    stage.in_fifo = Fifo(8, "in")
    stage.out_fifo = Fifo(8, "out")
    stage.skip_out_fifo = Fifo(1, "skip")
    stage.in_fifo.push(np.array([1, 2, 3, 0], dtype=np.int32))
    while stage.step():
        pass
    assert stage.out_fifo.occ == 4  # codes all through
    assert stage.skip_out_fifo.occ == 1  # skip blocked at capacity
    assert not stage.finished
    assert stage.skip_out_fifo.pop(1).tolist() == [1]
    while stage.step():
        pass
    assert stage.skip_out_fifo.occ == 1


# ---------------------------------------------------------------------------
# fully connected

def test_float_signed_matrix_bound():
    # inputs below 2**bits keep partial sums below 2**bits * K; past
    # 2**53 a float64 product could round, so the stage refuses to build
    raw = np.array([1.0, -1.0, 0.0, -2.0], dtype=np.float32).reshape(1, 1, 4, 1)
    wb = WeightBlock.from_float(raw)
    mat = float_signed_matrix("fc", wb, StreamShape(1, 1, 4, "accum", 51))
    assert mat.dtype == np.float64 and mat.shape == (4, 1)
    assert mat.reshape(-1).tolist() == [1, -1, 1, -1]
    with pytest.raises(ShapeError, match="fan-in 4"):
        float_signed_matrix("fc", wb, StreamShape(1, 1, 4, "accum", 52))


def test_fc_stage_matches_dense(rng):
    h, w, c, o = 3, 2, 4, 6
    n = 2
    x = rng.integers(0, 1 << n, size=(h, w, c))
    raw = rng.standard_normal((1, 1, h * w * c, o)).astype(np.float32)
    signs = np.where(raw >= 0, 1, -1).reshape(h * w * c, o)
    in_shape = StreamShape(h, w, c, "code", n)

    out, _ = _drive(lambda: FcStage("fc", in_shape, StreamShape(1, 1, o, "accum", 16),
                                    WeightBlock.from_float(raw)), x.reshape(-1))
    assert np.array_equal(out, x.reshape(-1) @ signs)

    bns = _random_bn(rng, o)
    out, _ = _drive(lambda: FcStage("fc", in_shape, StreamShape(1, 1, o, "code", n),
                                    WeightBlock.from_float(raw),
                                    thresholds=_thresholds(bns, 1.3, n)),
                    x.reshape(-1))
    ref = quantize_dense((x.reshape(-1) @ signs).reshape(1, 1, o), bns, 1.3, n)
    assert np.array_equal(out, ref.reshape(-1))


def test_fc_on_accum_stream(rng):
    # wide-accumulator input takes the signed-matrix path
    c = 5
    x = rng.integers(-7, 8, size=(1, 1, c))
    raw = rng.standard_normal((1, 1, c, 3)).astype(np.float32)
    signs = np.where(raw >= 0, 1, -1).reshape(c, 3)
    out, _ = _drive(lambda: FcStage("fc", StreamShape(1, 1, c, "accum", 16),
                                    StreamShape(1, 1, 3, "accum", 16),
                                    WeightBlock.from_float(raw)), x.reshape(-1))
    assert np.array_equal(out, x.reshape(-1) @ signs)
