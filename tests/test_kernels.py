import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import drive_stage
from reference import (
    BnChannel,
    apply_threshold,
    bn_code_fraction,
    bn_layer,
    width_first_capacity,
    window_indices,
)
from qnnstream.engine import WEIGHTED_KINDS, Fifo, window_shape
from qnnstream.errors import BufferEvictionError, ShapeError
from qnnstream.netdesc import BUILTIN_BUILDERS, expand_layers
from qnnstream.kernels import (
    FLOAT32_SIGNS_MAX_BYTES,
    AvgPoolStage,
    ConvStage,
    LineBuffer,
    MaxPoolStage,
    ResidualJoinStage,
    SkipDownsampleStage,
    StreamShape,
    TeeWidenStage,
    blas_signs,
    float_signed_matrix,
    line_buffer_capacity,
)
from qnnstream.oracle import (
    dense_avgpool,
    dense_conv,
    dense_maxpool,
    dense_skip_adapt,
    quantize_dense,
)
from qnnstream.quant import (
    CODE_FLOOR_LIMIT,
    ThresholdSet,
    WeightBlock,
    count_code_floors,
    fold_batchnorm,
    popcount_dot,
)


def _random_bn(rng, o, allow_negative=True):
    """A layer's BnParams for o channels."""
    lo = -2.0 if allow_negative else 0.1
    out = []
    while len(out) < o:
        g = float(rng.uniform(lo, 2.0))
        if abs(g) < 1e-3:
            continue
        out.append(BnChannel(gamma=g, mean=float(rng.uniform(-4, 4)),
                             inv_std=float(rng.uniform(0.2, 2.0)),
                             bias=float(rng.uniform(-3, 3))))
    return bn_layer(out)


def _out_hw(h, w, k, s, p):
    return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


def _drive(make_stage, in_data, skip_data=None):
    """Run fresh stages from make_stage with ample FIFOs and with FIFOs of
    capacity 1; both schedules must give the same output streams and the
    same structural counters."""
    roomy, narrow = make_stage(), make_stage()
    ample = drive_stage(roomy, in_data, skip_data)
    steps, step = [], narrow.step
    narrow.step = lambda: steps.append(1) or step()
    tight = drive_stage(narrow, in_data, skip_data, capacity=1)
    # fed one element at a time, the stage takes in at most one a step
    assert len(steps) >= len(in_data) > 1
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


def _line_buffer(capacity, chunks, slack=0, **geometry):
    # a ring of the given window geometry after pushing chunks
    lb = LineBuffer(capacity, "t", slack=slack, **geometry)
    for chunk in chunks:
        lb.push(np.asarray(chunk, dtype=np.int32))
    return lb


def test_line_buffer_gather_and_eviction():
    six = [np.arange(6)]
    assert _line_buffer(4, six, row_len=4).gather(range(2, 3)).tolist() == \
        [[[2, 3, 4, 5]]]
    with pytest.raises(BufferEvictionError):
        _line_buffer(4, six).gather(range(1, 2))
    with pytest.raises(ShapeError):
        _line_buffer(4, six).gather(range(6, 7))
    with pytest.raises(ShapeError):
        LineBuffer(0)
    # batches of windows read from a ring with slack: the ring position
    # of element 10 wraps to the front
    pushes = [np.arange(5), np.arange(5, 12)]
    lb = _line_buffer(4, pushes, slack=3, row_len=3)
    assert lb.gather(range(5, 9, 3)).tolist() == [[[5, 6, 7]], [[8, 9, 10]]]
    assert lb.gather(range(9, 10)).tolist() == [[[9, 10, 11]]]
    # a window wider than capacity faults even though the ring holds it,
    # as one row of five elements or as two rows of two, three apart
    with pytest.raises(BufferEvictionError):
        _line_buffer(4, pushes, slack=3, row_len=5).gather(range(6, 7))
    lb = _line_buffer(4, pushes, slack=3, rows=2, row_len=2, pitch=3)
    with pytest.raises(BufferEvictionError):
        lb.gather(range(6, 7))
    # the first window is late: its elements have left the ring
    with pytest.raises(BufferEvictionError):
        _line_buffer(4, pushes, slack=3, row_len=2).gather(range(3, 11, 7))


def test_threshold_matrix_matches_scalar(rng):
    ts = fold_batchnorm(_random_bn(rng, 12), 1.7, 2)
    accs = rng.integers(-2000, 2000, size=12)
    got = count_code_floors(accs, ts.sign, ts.values)
    for j in range(12):
        assert got[j] == apply_threshold(int(accs[j]), ts, j)
    # every channel at each of its thresholds and one either side, an
    # inverted channel's at -value
    assert set(ts.sign.tolist()) == {1, -1}
    at = np.array([row * ts.sign + off for row in ts.values for off in (-1, 0, 1)])
    got = count_code_floors(at, ts.sign, ts.values)
    for row, codes in zip(at, got):
        for j in range(12):
            assert codes[j] == apply_threshold(int(row[j]), ts, j)


def test_threshold_matrix_clamps_huge_values():
    # a microscopic scale makes thresholds overflow int64; the clamp must
    # keep every comparison against realistic accumulators intact
    p = BnChannel(gamma=1e-30, mean=0.0, inv_std=1.0, bias=-1.0)
    ts = fold_batchnorm(bn_layer([p, p]), 1.0, 1)
    assert ts.values.tolist() == [[CODE_FLOOR_LIMIT, CODE_FLOOR_LIMIT]]
    accs = np.array([-30000, 30000])
    got = count_code_floors(accs, ts.sign, ts.values)
    assert got[0] == apply_threshold(-30000, ts, 0) == bn_code_fraction(-30000, p, 1.0, 1)
    assert got[1] == apply_threshold(30000, ts, 1) == bn_code_fraction(30000, p, 1.0, 1)


def test_line_buffer_windows_straddle_the_wrap(rng):
    # a mirrored ring reads a window across its wrap point as one slice of
    # its strided view; every window and batch of windows the checks let
    # through must read the stream back exactly, for every chunking of
    # the pushes
    capacity, slack = 5, 2
    size = capacity + slack
    stream = (np.arange(200, dtype=np.int32) * 7 + 3) % 1000
    # one ring per window width, all fed the same chunks
    rings = {width: LineBuffer(capacity, "t", slack=slack, row_len=width)
             for width in range(1, capacity + 1)}
    straddled = 0
    pos = 0
    while pos < len(stream):
        n = int(rng.integers(0, 2 * size))  # empty, short, longer than the ring
        for lb in rings.values():
            lb.push(stream[pos:pos + n])
        pos = min(pos + n, len(stream))
        assert all(lb.total == pos for lb in rings.values())
        for oldest in range(max(pos - size, 0), pos):
            for width in range(1, min(capacity, pos - oldest) + 1):
                lb = rings[width]
                win = np.arange(oldest, oldest + width)
                assert np.array_equal(lb.gather(range(oldest, oldest + 1)),
                                      stream[win].reshape(1, 1, width))
                rows = win + np.arange(pos - win[-1])[:, None]
                got = lb.gather(range(oldest, pos - width + 1))
                assert np.array_equal(got.reshape(len(rows), width), stream[rows])
                straddled += oldest % size + width > size
        if pos > size:
            with pytest.raises(BufferEvictionError):
                rings[1].gather(range(pos - size - 1, pos - size))
        with pytest.raises(ShapeError):
            rings[1].gather(range(pos, pos + 1))
    assert straddled > 100


def test_line_buffer_push_longer_than_ring():
    pushes = [np.arange(2), np.arange(2, 12)]  # ten elements into four slots
    lb = _line_buffer(3, pushes, slack=1, row_len=3)
    assert lb.total == 12
    assert lb.gather(range(8, 10)).tolist() == [[[8, 9, 10]], [[9, 10, 11]]]
    with pytest.raises(BufferEvictionError):
        _line_buffer(3, pushes, slack=1, row_len=2).gather(range(7, 8))
    with pytest.raises(BufferEvictionError):  # wider than capacity
        _line_buffer(3, pushes, slack=1, row_len=4).gather(range(8, 9))
    with pytest.raises(ShapeError):
        lb.gather(range(10, 11))


def _record_gathers(lbuf):
    # wrap gather the way a tracer hooks it, as a one-argument instance
    # attribute; returns the list of (starts, copied windows) it fills
    seen = []
    gather = lbuf.gather

    def call(starts):
        got = gather(starts)
        seen.append((starts, got.copy()))
        return got
    lbuf.gather = call
    return seen


@settings(max_examples=80, deadline=None)
@example(fc=True, k=1, s=1, p=0, c=3, h=2, w=4, seed=0)
@given(fc=st.booleans(), k=st.integers(1, 4), s=st.integers(1, 3), p=st.integers(0, 2),
       c=st.integers(1, 5), h=st.integers(1, 7), w=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_strided_read_equals_index_arithmetic(fc, k, s, p, c, h, w, seed):
    # every batch a windowed stage reads as a slice of its ring's strided
    # view holds exactly the stream elements that per-window index
    # arithmetic names, for any chunking of the pushes
    if fc:  # the fc geometry: one window over one pixel of h*w*c channels
        k, s, p, h, w, c = 1, 1, 0, 1, 1, h * w * c
    assume(h + 2 * p >= k and w + 2 * p >= k)
    rng = np.random.default_rng(seed)
    hp, wp = h + 2 * p, w + 2 * p
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    x = rng.integers(0, 4, size=(h, w, c))
    stage = MaxPoolStage("mp", StreamShape(h, w, c, "code", 2),
                         StreamShape(oh, ow, c, "code", 2), k, s, p)
    batches = _record_gathers(stage.lbuf)
    stage.in_fifo = Fifo(x.size, "in")
    stage.out_fifo = Fifo(oh * ow * c, "out")
    stream = x.reshape(-1).astype(np.int32)
    fed = 0
    while not stage.finished:
        n = int(rng.integers(0, 2 * wp * c + 1))  # empty, short, over a row
        fed += stage.in_fifo.push(stream[fed:fed + n])
        stage.step()
    expect = np.pad(x, ((p, p), (p, p), (0, 0))).reshape(-1)[window_indices(k, s, c, hp, wp)]
    done = 0
    for starts, got in batches:
        assert got.shape == (len(starts), k, k * c)
        assert np.array_equal(got.reshape(len(got), -1), expect[done:done + len(got)])
        done += len(got)
    assert done == oh * ow
    assert np.array_equal(stage.out_fifo.pop(oh * ow * c),
                          dense_maxpool(x, k, s, p).reshape(-1))


def test_undersized_buffer_faults_at_first_fire(rng):
    # a capacity so far below the window's extent that the mirrored ring
    # is shorter than one window leaves the strided view no slot; the
    # stage still builds, and its first fire ends in BufferEvictionError
    k, h, w, c = 5, 5, 5, 2
    raw = rng.standard_normal((k, k, c, 2)).astype(np.float32)
    stage = ConvStage("cv", StreamShape(h, w, c, "code", 2),
                      StreamShape(3, 3, 2, "accum", 16),
                      WeightBlock.from_float(raw), 1, 1, buffer_capacity=1)
    lb = stage.lbuf
    assert 2 * lb.size < lb.extent and len(lb.windows) == 0
    fires = _record_gathers(lb)
    with pytest.raises(BufferEvictionError):
        drive_stage(stage, rng.integers(0, 4, size=h * w * c))
    assert stage.fill_el is not None and not fires


def test_gathered_windows_are_read_only():
    lb = _line_buffer(4, [np.arange(6)], rows=2, row_len=1, pitch=2)
    got = lb.gather(range(2, 4))
    assert got.tolist() == [[[2], [4]], [[3], [5]]]
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0, 0] = 7


def _windowed_stages(rng):
    # one stage of every windowed kind and dot product path
    c = 3
    shape = StreamShape(4, 5, c, "code", 2)
    raw3 = rng.standard_normal((3, 3, c, 2)).astype(np.float32)
    raw1 = rng.standard_normal((1, 1, c, 2)).astype(np.float32)
    wide = StreamShape(2, 3, 1024, "code", 2)
    raw_wide = rng.standard_normal((1, 1, 1024, 257)).astype(np.float32)
    flat = StreamShape(1, 1, 4 * 5 * c, "code", 2)
    raw_fc = rng.standard_normal((1, 1, 4 * 5 * c, 3)).astype(np.float32)
    assert blas_signs("cv", WeightBlock.from_float(raw_wide), wide) is None
    return [
        (MaxPoolStage("mp", shape, StreamShape(4, 5, c, "code", 2), 1, 1), shape),
        (MaxPoolStage("mp", shape, StreamShape(2, 2, c, "code", 2), 2, 2), shape),
        (AvgPoolStage("ap", shape, StreamShape(4, 5, c, "accum", 16), 3, 1, 1), shape),
        (ConvStage("cv", shape, StreamShape(2, 3, 2, "accum", 16),
                   WeightBlock.from_float(raw3), 1, 0), shape),
        (ConvStage("cv", shape, StreamShape(2, 3, 2, "accum", 16),
                   WeightBlock.from_float(raw1), 2, 0), shape),
        (ConvStage("cv", wide, StreamShape(2, 3, 257, "accum", 16),
                   WeightBlock.from_float(raw_wide), 1, 0), wide),
        (ConvStage("fc", flat, StreamShape(1, 1, 3, "accum", 16),
                   WeightBlock.from_float(raw_fc), 1, 0), flat),
    ]


def test_no_stage_emits_a_view_of_its_ring(rng):
    # a later push overwrites the ring, so an emitted array that shared
    # its memory would change after it left; every stage emits a copy
    for stage, shape in _windowed_stages(rng):
        emitted = []
        emit = stage._emit

        def record(fifo, arr, emit=emit, emitted=emitted):
            emitted.append(arr)
            emit(fifo, arr)
        stage._emit = record
        drive_stage(stage, rng.integers(0, 4, size=shape.elements), capacity=7)
        assert emitted
        assert not any(np.shares_memory(arr, stage.lbuf.ring) for arr in emitted), \
            stage.name


_HUGE = 1 << 62


@st.composite
def _threshold_set(draw):
    """A layer's ThresholdSet for 1 to 4 channels of n-bit codes, n
    1..8: ascending columns, with inverted channels and runs of
    thresholds clamped to +/-2**62 at either end."""
    n = draw(st.integers(1, 8))
    m = (1 << n) - 1
    signs, columns = [], []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.lists(st.integers(0, 300), min_size=m, max_size=m))
        values = (draw(st.integers(-(1 << 15) - 300, 1 << 15))
                  + np.cumsum(steps)).tolist()
        low = draw(st.integers(0, m))
        high = draw(st.integers(0, m - low))
        values[:low] = [-_HUGE] * low
        values[m - high:] = [_HUGE] * high
        columns.append(values)
        signs.append(draw(st.sampled_from([1, -1])))
    return ThresholdSet(sign=np.array(signs, dtype=np.int64),
                        values=np.array(columns, dtype=np.int64).T.copy(), n=n)


@settings(max_examples=80, deadline=None)
@given(ts=_threshold_set(), data=st.data())
def test_threshold_matrix_matches_scalar_property(ts, data):
    chans = len(ts.sign)
    sign, floors = ts.sign, ts.values
    drawn = data.draw(st.lists(st.integers(-(1 << 15), 1 << 15),
                               min_size=chans, max_size=8 * chans))
    rows = [drawn[i:i + chans] for i in range(0, len(drawn) - chans + 1, chans)]
    rows += [[-(1 << 15)] * chans, [1 << 15] * chans]
    for j in range(chans):  # each threshold and one either side
        for v in floors[:, j].tolist():
            if abs(v) <= 1 << 15:
                for off in (-1, 0, 1):
                    rows.append([0] * chans)
                    rows[-1][j] = int(sign[j]) * v + off
    accs = np.array(rows, dtype=np.int64)
    got = count_code_floors(accs, sign, floors)
    assert got.dtype == np.uint8 and got.shape == accs.shape
    want = [[apply_threshold(a, ts, j) for j, a in enumerate(row)] for row in rows]
    assert got.tolist() == want
    # a map of pixels counts the same as its rows: channels stay last
    pixels = accs.reshape(len(rows), 1, chans)
    assert np.array_equal(count_code_floors(pixels, sign, floors), got[:, None])


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
        thresholds = fold_batchnorm(bns, d, 2)
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
        out, _ = _drive(lambda: ConvStage(
            "fc0", StreamShape(h, w, c, "u8", 8), StreamShape(oh, ow, o, "code", 2),
            WeightBlock.from_float(raw), s, p, thresholds=fold_batchnorm(bns, 2.0, 2)),
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
        lambda: ResidualJoinStage("jn", shape, fold_batchnorm(bns, d, n)),
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
# input FIFOs that hold more than their capacity

def _drive_queued(stage, in_data, skip_data=None, capacity=1, out_capacity=None):
    """Run one stage with its whole input pushed at once into input FIFOs
    of the capacity, so that each holds more than it shows, and with
    output FIFOs of out_capacity (capacity without it), drained between
    steps by what they show. Returns (main output, skip output or None,
    the (elements ingested before, elements taken) of each of the
    stage's pops of its main input)."""
    feeds = [("in_fifo", in_data)] + ([] if skip_data is None else [("skip_fifo", skip_data)])
    outputs = {"out_fifo": []}
    if isinstance(stage, (ResidualJoinStage, TeeWidenStage)):
        outputs["skip_out_fifo"] = []
    for attr, data in feeds:
        setattr(stage, attr, Fifo(capacity, attr))
        getattr(stage, attr).push(data)
    for attr in outputs:
        setattr(stage, attr, Fifo(out_capacity or capacity, attr))
    pops, pop = [], stage.in_fifo.pop

    def recorded(n):
        got = pop(n)
        pops.append((stage.real_el, len(got)))
        return got
    stage.in_fifo.pop = recorded
    while not stage.finished or any(getattr(stage, a).held for a in outputs):
        moved = stage.step()
        for attr, got in outputs.items():
            fifo = getattr(stage, attr)
            if fifo.occ:
                got.append(fifo.pop(fifo.occ))
                moved = True
        assert moved, "stage %s made no progress" % stage.name
    joined = {a: np.concatenate(got or [np.empty(0)]) for a, got in outputs.items()}
    return joined["out_fifo"], joined.get("skip_out_fifo"), [p for p in pops if p[1]]


def _assert_windowed_counters(stage, h, w, c, k, p, compute):
    hp, wp = h + 2 * p, w + 2 * p
    assert stage.real_el == h * w * c
    assert stage.pad_el == (hp * wp - h * w) * c
    assert stage.compute_cycles == compute
    assert stage.fill_el == line_buffer_capacity(c, wp, k)


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_conv_takes_queued_input(rng, capacity):
    # left-pad windows (k=1 p=1, k=3 p=3), rows that never fire (s=2) and
    # runs longer than the capacity, taken in one pop each
    taken = []
    for k, s, p in ((1, 1, 0), (1, 1, 1), (3, 1, 1), (3, 2, 3), (5, 2, 0)):
        for fused in (True, False):
            make, x, ref = _conv_case(rng, k, s, p, fused)
            stage = make()
            out, _, pops = _drive_queued(stage, x.reshape(-1).astype(np.int32),
                                         capacity=capacity)
            assert np.array_equal(out, ref.reshape(-1))
            h, w, c = x.shape
            oh, ow = _out_hw(h, w, k, s, p)
            _assert_windowed_counters(stage, h, w, c, k, p, oh * ow * stage.out_ch)
            taken += [n for _, n in pops]
    assert max(taken) > capacity


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_maxpool_takes_queued_input(rng, capacity):
    for k, s, p in ((2, 2, 0), (3, 2, 1), (3, 1, 0)):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(k + 1, 9)), int(rng.integers(k + 1, 9))
        x = rng.integers(0, 8, size=(h, w, c)).astype(np.uint8)
        oh, ow = _out_hw(h, w, k, s, p)
        stage = MaxPoolStage("mp", StreamShape(h, w, c, "code", 3),
                             StreamShape(oh, ow, c, "code", 3), k, s, p)
        out, _, pops = _drive_queued(stage, x.reshape(-1), capacity=capacity)
        assert np.array_equal(out, dense_maxpool(x, k, s, p).reshape(-1))
        _assert_windowed_counters(stage, h, w, c, k, p, 0)
        assert max(n for _, n in pops) > capacity


def test_join_takes_queued_input(rng):
    # chunks inside one pixel, of whole pixels and across a pixel
    # boundary, over an int32 skip stream and a uint8 one (a tee's codes)
    kinds = set()
    for c in (1, 4, 5):
        for capacity in (1, 2, 3):
            for out_capacity in (None, 1, 1000):
                for skip_codes in (False, True):
                    n = 2
                    shape = StreamShape(3, 2, c, "code", n)
                    bns = _random_bn(rng, c)
                    accs = rng.integers(-300, 300, size=(3, 2, c)).astype(np.int32)
                    skip = rng.integers(0, 4, size=(3, 2, c)).astype(np.uint8) if skip_codes \
                        else rng.integers(-300, 300, size=(3, 2, c)).astype(np.int32)
                    stage = ResidualJoinStage("jn", shape, fold_batchnorm(bns, 1.5, n))
                    out, skip_out, pops = _drive_queued(
                        stage, accs.reshape(-1), skip.reshape(-1), capacity, out_capacity)
                    total = accs.astype(np.int64) + skip
                    assert skip_out.dtype == np.int32
                    assert np.array_equal(skip_out, total.reshape(-1))
                    assert np.array_equal(out, quantize_dense(total, bns, 1.5, n).reshape(-1))
                    assert stage.real_el == total.size and stage.fill_el == 1
                    assert stage.stalled_on_skip == 0
                    for start, taken in pops:
                        head = start % c
                        kinds.add("inside" if head + taken <= c else
                                  "whole" if not head and not taken % c else "across")
    assert kinds == {"inside", "whole", "across"}


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_tee_takes_queued_input(rng, capacity):
    shape = StreamShape(3, 4, 3, "code", 2)
    x = rng.integers(0, 4, size=shape.elements).astype(np.uint8)
    taken = []
    for out_capacity in (None, 1, 5, 1000):
        stage = TeeWidenStage("tee", shape)
        out, skip_out, pops = _drive_queued(stage, x, capacity=capacity,
                                            out_capacity=out_capacity)
        assert np.array_equal(out, x) and np.array_equal(skip_out, x)
        assert stage.real_el == shape.elements and stage.fill_el == 1
        # a step stops on the capacity-wide pop whose emit leaves an
        # output over capacity
        assert all(n <= ((out_capacity or capacity) // capacity + 1) * capacity
                   for _, n in pops)
        taken += [n for _, n in pops]
    assert max(taken) > capacity


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_subsample_takes_queued_input(rng, capacity):
    # a pop stays inside one pixel: a dropped pixel's rest is taken at
    # once, a kept one's is cut at the capacity-wide pop whose emit leaves
    # the output over capacity (out_capacity 1 makes that cut fire)
    taken = []
    for s, c, o in ((1, 4, 4), (2, 5, 7), (2, 3, 3), (1, 3, 6)):
        h, w = 5, 4
        x = rng.integers(-100, 100, size=(h, w, c)).astype(np.int32)
        oh, ow = (h - 1) // s + 1, (w - 1) // s + 1
        for out_capacity in (None, 1, 4, 1000):
            stage = SkipDownsampleStage("ss", StreamShape(h, w, c, "accum", 16),
                                        StreamShape(oh, ow, o, "accum", 16), s)
            out, _, pops = _drive_queued(stage, x.reshape(-1), capacity=capacity,
                                         out_capacity=out_capacity)
            assert np.array_equal(out, dense_skip_adapt(x, s, o).reshape(-1))
            assert stage.real_el == x.size and stage.fill_el == 1
            room = out_capacity or capacity
            for start, n in pops:
                r, col = divmod(start // c, w)
                rest = c - start % c
                if r % s or col % s:
                    assert n == rest
                else:
                    assert n <= min(rest, (room // capacity + 1) * capacity)
            taken += [n for _, n in pops]
    assert max(taken) > capacity


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
    # the narrowest exact float: float32 up to 2**bits * K = 2**24, float64
    # one fan-in step past it
    mat = float_signed_matrix("fc", wb, StreamShape(1, 1, 4, "accum", 22))
    assert mat.dtype == np.float32 and mat.reshape(-1).tolist() == [1, -1, 1, -1]
    wide = WeightBlock.from_float(np.ones((1, 1, 5, 1), dtype=np.float32))
    assert float_signed_matrix("fc", wide, StreamShape(1, 1, 5, "accum", 22)).dtype == np.float64


def _zero_weights(k, in_ch, out_ch):
    return WeightBlock(k, in_ch, out_ch,
                       np.zeros((-(-k * k * in_ch // 64), out_ch), dtype=np.uint64))


def test_blas_signs_rule_edges():
    # a code stream takes float32 while it is exact and its sign matrix
    # is at most FLOAT32_SIGNS_MAX_BYTES, popcount_dot (None) otherwise;
    # other streams have no popcount path and take the narrowest float
    side = FLOAT32_SIGNS_MAX_BYTES // 4 // 512
    codes = StreamShape(1, 1, 512, "code", 2)
    assert blas_signs("fc", _zero_weights(1, 512, side), codes).dtype == np.float32
    assert blas_signs("fc", _zero_weights(1, 512, side + 1), codes) is None
    assert blas_signs("fc", _zero_weights(1, 1 << 16, 1),
                      StreamShape(1, 1, 1 << 16, "code", 8)).dtype == np.float32
    assert blas_signs("fc", _zero_weights(1, (1 << 16) + 1, 1),
                      StreamShape(1, 1, (1 << 16) + 1, "code", 8)) is None
    accums = StreamShape(1, 1, 256, "accum", 16)
    assert blas_signs("fc", _zero_weights(1, 256, 4 * side), accums).dtype == np.float32
    assert blas_signs("fc", _zero_weights(1, 512, 1),
                      StreamShape(1, 1, 512, "accum", 16)).dtype == np.float64


def test_resnet18_dot_paths():
    # the rule's choice on every weighted resnet18 stage: the 8-bit first
    # conv and the 56- and 28-wide 3x3 convs multiply by float32 signs,
    # the wider convs run popcount_dot, and the fc over 16-bit averages
    # needs float64
    paths = {}
    for plan in expand_layers(BUILTIN_BUILDERS["resnet18"]()):
        if plan.kind in WEIGHTED_KINDS:
            shape = window_shape(plan)
            signs = blas_signs(plan.name, _zero_weights(plan.k, shape.c, plan.out_shape.c),
                               shape)
            paths[plan.name] = "popcount" if signs is None else signs.dtype.name
    blocks = {"block%d_%s" % (i, half): "float32" if i <= 4 else "popcount"
              for i in range(1, 9) for half in "ab"}
    assert paths == {"conv1": "float32", **blocks, "fc1": "float64"}


@settings(max_examples=60, deadline=None)
@example(n=8, k=1, c=1 << 16, o=4, rows=2, seed=0)  # 2**8 * K = 2**24
@given(n=st.integers(1, 8), k=st.sampled_from([1, 2, 3, 5, 7]), c=st.integers(1, 70),
       o=st.integers(1, 9), rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_float32_path_equals_popcount_dot(n, k, c, o, rows, seed):
    # a conv stage on the float32 path computes exactly popcount_dot of
    # its windows; the first window is all at the top code against an
    # all +1 output channel, the largest sum the rule allows for
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k, k, c, o)).astype(np.float32)
    raw[..., 0] = 1.0
    wb = WeightBlock.from_float(raw)
    in_shape = StreamShape(k, k, c, "code", n)
    assert blas_signs("cv", wb, in_shape).dtype == np.float32
    stage = ConvStage("cv", in_shape, StreamShape(1, 1, o, "accum", 16), wb, 1, 0)
    windows = rng.integers(0, 1 << n, size=(rows, k * k * c), dtype=np.int32)
    windows[0] = (1 << n) - 1
    assert np.array_equal(stage.dot(windows), popcount_dot(wb.words, windows, n))


def test_popcount_path_stage_matches_dense(rng):
    # a sign matrix past the cap runs popcount_dot inside the stage
    c, o = 1024, 257
    x = rng.integers(0, 4, size=(2, 3, c))
    raw = rng.standard_normal((1, 1, c, o)).astype(np.float32)
    wb = WeightBlock.from_float(raw)
    in_shape = StreamShape(2, 3, c, "code", 2)
    assert blas_signs("cv", wb, in_shape) is None
    out, _ = _drive(lambda: ConvStage("cv", in_shape, StreamShape(2, 3, o, "accum", 16),
                                      wb, 1, 0), x.reshape(-1))
    assert np.array_equal(out, dense_conv(x, raw, 1, 0).reshape(-1))


def test_fc_stage_matches_dense(rng):
    h, w, c, o = 3, 2, 4, 6
    n = 2
    x = rng.integers(0, 1 << n, size=(h, w, c))
    raw = rng.standard_normal((1, 1, h * w * c, o)).astype(np.float32)
    signs = np.where(raw >= 0, 1, -1).reshape(h * w * c, o)
    # an fc layer is a 1x1 conv over one pixel of h*w*c channels
    in_shape = StreamShape(1, 1, h * w * c, "code", n)

    out, _ = _drive(lambda: ConvStage("fc", in_shape, StreamShape(1, 1, o, "accum", 16),
                                      WeightBlock.from_float(raw), 1, 0), x.reshape(-1))
    assert np.array_equal(out, x.reshape(-1) @ signs)

    bns = _random_bn(rng, o)
    out, _ = _drive(lambda: ConvStage("fc", in_shape, StreamShape(1, 1, o, "code", n),
                                      WeightBlock.from_float(raw), 1, 0,
                                      thresholds=fold_batchnorm(bns, 1.3, n)),
                    x.reshape(-1))
    ref = quantize_dense((x.reshape(-1) @ signs).reshape(1, 1, o), bns, 1.3, n)
    assert np.array_equal(out, ref.reshape(-1))


def test_fc_on_accum_stream(rng):
    # wide-accumulator input takes the signed-matrix path
    c = 5
    x = rng.integers(-7, 8, size=(1, 1, c))
    raw = rng.standard_normal((1, 1, c, 3)).astype(np.float32)
    signs = np.where(raw >= 0, 1, -1).reshape(c, 3)
    out, _ = _drive(lambda: ConvStage("fc", StreamShape(1, 1, c, "accum", 16),
                                      StreamShape(1, 1, 3, "accum", 16),
                                      WeightBlock.from_float(raw), 1, 0), x.reshape(-1))
    assert np.array_equal(out, x.reshape(-1) @ signs)
