import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    as_float32_channel,
    random_image,
    random_net,
    residual_overflow_chain,
    wide_params_strategy,
)
from qnnstream.engine import (
    Fifo,
    ModelConfig,
    Partition,
    StageCounters,
    analytic_counters,
    build_graph,
    estimate_cycles,
    measured_counters,
    run,
    simulate_partition,
    skip_store_elements,
    validate_partition,
    _drive_sweep,
)
from qnnstream.errors import (
    AccumOverflowError,
    DeadlockError,
    ParamsError,
    PartitionError,
    QnnError,
    ShapeError,
)
from qnnstream import kernels
from qnnstream.kernels import ResidualJoinStage
from qnnstream.netdesc import (
    BUILTIN_BUILDERS,
    blob_layout,
    build_resnet18,
    expand_layers,
    load_params,
    parse_netdesc,
    random_params,
    save_params,
)
from qnnstream.oracle import dense_infer
from qnnstream.resources import _cache, estimate_resources

RES_NET = """\
input 12 12 3 2
conv k=3 s=1 p=1 o=4 d=1.0 act=2
resblock o=4 s=1 d=1.5 act=2
resblock o=6 s=2 d=1.0 proj
avgpool k=2 s=2
fc o=5
"""


def _load(text, seed=3):
    net = parse_netdesc(text, name="t")
    params = load_params(random_params(net, np.random.default_rng(seed)), net)
    return net, params


@pytest.fixture
def res_case(rng):
    net, params = _load(RES_NET)
    ish = net.input_shape
    img = rng.integers(0, 1 << ish.bits, (ish.h, ish.w, ish.c), dtype=np.uint8)
    return net, params, img


# ---------------------------------------------------------------------------
# the analytic model

def test_conv_busy_frozen():
    # 4x4 single-channel input, 3x3 stride-1 unpadded conv, two outputs:
    # 16 pixel ingest cycles plus 2x2 output pixels times 2 convolutions
    net, _ = _load("input 4 4 1 2\nconv k=3 s=1 p=0 o=2 d=1.0 act=2\n")
    rep = estimate_cycles(net, ModelConfig())
    st = rep.stage("conv1")
    assert st.in_units == 16
    assert st.compute == 8
    assert st.busy == 24


def test_element_mode_counts_elements():
    net, _ = _load("input 4 4 2 2\nconv k=3 s=1 p=0 o=2 d=1.0 act=2\n")
    pixel = estimate_cycles(net, ModelConfig(cin_mode="pixel"))
    element = estimate_cycles(net, ModelConfig(cin_mode="element"))
    assert pixel.stage("conv1").in_units == 16
    assert element.stage("conv1").in_units == 32
    assert element.total_cycles > pixel.total_cycles


def test_c_mac_scales_compute():
    net, _ = _load("input 4 4 1 2\nconv k=3 s=1 p=0 o=2 d=1.0 act=2\n")
    one = estimate_cycles(net, ModelConfig(c_mac=1))
    three = estimate_cycles(net, ModelConfig(c_mac=3))
    assert three.stage("conv1").busy == one.stage("conv1").in_units \
        + 3 * one.stage("conv1").compute


@pytest.mark.parametrize("text", [
    "input 3 5 4 8\nfc o=6\n",  # 8-bit pixels
    "input 3 5 4 2\nfc o=6 d=1.0\n",  # activation codes
    "input 6 10 2 2\navgpool k=2 s=2\nfc o=3\n",  # accumulators
])
def test_fc_counters_closed_form(rng, text):
    # an fc stage runs as a 1x1 conv over one pixel of h*w*c channels; its
    # counters must still be those of collecting the whole h x w x c frame
    net, params = _load(text)
    plans = expand_layers(net)
    fc = plans[-1]
    ish, o = fc.in_shape, fc.out_ch
    hwc = ish.h * ish.w * ish.c
    expect = StageCounters(name=fc.name, channels=ish.c, real_el=hwc,
                           pad_el=0, compute=o, fill_el=hwc, first_compute=o)
    assert analytic_counters(plans)[-1] == expect
    img = random_image(rng, net)
    for capacity in (None, 1):
        graph = build_graph(net, params, fifo_capacity=capacity)
        result = run(graph, img)
        assert measured_counters(graph)[-1] == expect
        assert result.report.stage(fc.name).fill == ish.h * ish.w + o
    res = estimate_resources(net).stage(fc.name)
    used, bits, _ = _cache(o, hwc)
    assert (res.weight_bits_used, res.weight_bits) == (used, bits)
    assert res.ff == 0


def test_wall_ms_follows_clock(res_case):
    net, params, img = res_case
    rep = estimate_cycles(net, ModelConfig(clock_mhz=105.0))
    assert rep.wall_ms == pytest.approx(rep.total_cycles / 105.0e3)
    double = estimate_cycles(net, ModelConfig(clock_mhz=210.0))
    assert double.total_cycles == rep.total_cycles
    assert double.wall_ms == pytest.approx(rep.wall_ms / 2)


def test_bottleneck_is_max_busy(res_case):
    net, params, img = res_case
    rep = estimate_cycles(net, ModelConfig())
    busiest = max(rep.stages, key=lambda s: s.busy)
    assert rep.bottleneck == busiest.name


def test_estimate_equals_run(res_case):
    net, params, img = res_case
    for cfg in (ModelConfig(),
                ModelConfig(cin_mode="element"),
                ModelConfig(stall_model="isolated"),
                ModelConfig(cin_mode="element", stall_model="isolated"),
                ModelConfig(c_mac=4)):
        est = estimate_cycles(net, cfg)
        res = run(build_graph(net, params), img, cfg)
        assert est.total_cycles == res.report.total_cycles
        for a, b in zip(est.stages, res.report.stages):
            assert (a.name, a.in_units, a.compute, a.busy, a.fill) == \
                (b.name, b.in_units, b.compute, b.busy, b.fill)


def test_model_config_validation():
    with pytest.raises(QnnError):
        ModelConfig(cin_mode="banana")
    with pytest.raises(QnnError):
        ModelConfig(stall_model="loose")
    with pytest.raises(QnnError):
        ModelConfig(clock_mhz=0)
    for bad in (0, (1 << 32) + 1):
        with pytest.raises(QnnError):
            ModelConfig(c_mac=bad)
    # the largest c_mac keeps resnet18's cycle total within float range
    assert estimate_cycles(build_resnet18(), ModelConfig(c_mac=1 << 32)).wall_ms > 0
    for bad in (float("nan"), float("inf")):
        with pytest.raises(QnnError):
            ModelConfig(clock_mhz=bad)
        with pytest.raises(QnnError):
            ModelConfig(link_gbps=bad)


# ---------------------------------------------------------------------------
# execution semantics

def test_run_validates_input(res_case):
    # the engine and the oracle refuse the same images: a wrong shape, a
    # value outside [0, 2**bits) and a value that is not an integer,
    # while an image of integral floats runs as its integer one
    net, params, img = res_case
    assert net.input_shape.bits == 2
    graph = build_graph(net, params)
    with pytest.raises(ShapeError):
        run(graph, img[:-1], ModelConfig())
    with pytest.raises(ShapeError):
        dense_infer(net, params, img[:-1])
    for value in (4, 7, -1, 2.7, float("nan")):
        bad = img.astype(np.int32 if isinstance(value, int) else np.float64)
        bad[0, 0, 0] = value
        with pytest.raises(ShapeError):
            run(build_graph(net, params), bad, ModelConfig())
        with pytest.raises(ShapeError):
            dense_infer(net, params, bad)
    want = dense_infer(net, params, img)
    for dtype in (np.float32, np.float64):
        assert np.array_equal(run(build_graph(net, params), img.astype(dtype)).output, want)
        assert np.array_equal(dense_infer(net, params, img.astype(dtype)), want)


def test_fifo_conservation(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    run(graph, img, ModelConfig())
    # occ is pushed - popped by construction, so empty means conserved
    for f in graph.fifos:
        assert f.occ == 0
        assert f.max_occ > 0


@pytest.mark.parametrize("capacity", [1, 2, 3, 7, None],
                         ids=["1", "2", "3", "7", "default"])
def test_tiny_fifo_capacity_same_output(res_case, capacity):
    # any capacity >= 1 only changes the schedule; a second default-sized
    # run also pins that repeated runs agree
    net, params, img = res_case
    base = run(build_graph(net, params), img, ModelConfig())
    graph = build_graph(net, params, fifo_capacity=capacity)
    other = run(graph, img, ModelConfig())
    assert np.array_equal(other.output, base.output)
    assert other.report == base.report
    assert all(s.stalled_on_skip == 0 for s in graph.stages
               if isinstance(s, ResidualJoinStage))


@pytest.mark.parametrize("capacity", [0, -1])
def test_fifo_capacity_below_one_rejected(res_case, capacity):
    net, params, _ = res_case
    with pytest.raises(ShapeError):
        build_graph(net, params, fifo_capacity=capacity)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 9),
       ops=st.lists(st.tuples(st.booleans(), st.integers(1, 12)), max_size=40))
# a pop inside one chunk, of exactly the rest of one, of one whole
# chunk, and across three chunks
@example(capacity=9, ops=[(True, 4), (False, 1), (False, 3), (True, 2),
                          (False, 2), (True, 3), (True, 3), (True, 2),
                          (False, 8), (False, 5)])
# a push onto a full FIFO, whose elements move in as pops make room
@example(capacity=3, ops=[(True, 3), (True, 4), (False, 2), (False, 5),
                          (False, 1)])
def test_fifo_matches_list_model(capacity, ops):
    # Fifo against a plain list of elements: each op pushes a chunk of
    # fresh values, which the FIFO keeps whole, or pops up to that many
    # of the capacity it shows
    fifo, model, fresh, peak = Fifo(capacity, "f"), [], 0, 0
    for is_push, n in ops:
        if is_push:
            chunk = np.arange(fresh, fresh + n, dtype=np.int32)
            fresh += n
            assert fifo.push(chunk) == n
            model += chunk.tolist()
        else:
            shown = min(n, fifo.occ)
            assert fifo.pop(n).tolist() == model[:shown]
            del model[:shown]
        assert fifo.held == len(model)
        assert fifo.occ == min(len(model), capacity)
        peak = max(peak, fifo.occ)
        assert fifo.max_occ == peak <= capacity


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), residual=st.booleans(),
       capacity=st.sampled_from(list(range(1, 10)) + [None]))
def test_fifo_capacity_property(seed, residual, capacity):
    # any FIFO capacity keeps outputs and cycle reports; every join's
    # skip FIFO is the store the memory estimate charges, and it is deep
    # enough that the adder never waits on the skip side
    rng = np.random.default_rng(seed)
    net = random_net(rng, force_residual=residual)
    params = load_params(random_params(net, rng), net)
    img = random_image(rng, net)
    base = run(build_graph(net, params), img, ModelConfig())
    graph = build_graph(net, params, fifo_capacity=capacity)
    other = run(graph, img, ModelConfig())
    assert np.array_equal(other.output, base.output)
    assert other.report == base.report
    charged = estimate_resources(net)
    for join in (s for s in graph.stages if isinstance(s, ResidualJoinStage)):
        assert join.stalled_on_skip == 0
        assert join.skip_fifo.capacity * 16 == charged.stage(join.name).skip_bits


@pytest.mark.parametrize("seed,capacity", [
    (671, 6), (103, 7),
    pytest.param(854, 8, marks=pytest.mark.xfail(strict=True, reason=(
        "a subsample-fed join still stalls: a SkipDownsampleStage stopped "
        "on its full output resumes only at its next step (ROADMAP item 1)"))),
])
def test_skip_producer_keeps_up(seed, capacity):
    # test_fifo_capacity_property's draws on which block1_join once
    # waited on its skip FIFO: tee-fed at 671 and 103, subsample-fed at 854
    rng = np.random.default_rng(seed)
    net = random_net(rng, force_residual=True)
    params = load_params(random_params(net, rng), net)
    img = random_image(rng, net)
    base = run(build_graph(net, params), img, ModelConfig())
    graph = build_graph(net, params, fifo_capacity=capacity)
    other = run(graph, img, ModelConfig())
    assert np.array_equal(other.output, base.output)
    assert other.report == base.report
    joins = [s for s in graph.stages if isinstance(s, ResidualJoinStage)]
    assert joins
    assert all(j.stalled_on_skip == 0 for j in joins)


# batchnorm channels of tiny and huge scale, as float32 blobs hold them,
# replace a few of the well-scaled ones random_params draws
wide_case = given(seed=st.integers(0, 2 ** 32 - 1), residual=st.booleans(),
                  image=st.sampled_from(["random", "zero", "max"]),
                  channels=st.lists(wide_params_strategy().map(as_float32_channel),
                                    max_size=4))


@settings(max_examples=100, deadline=None)
@wide_case
def test_wide_activations_end_to_end(seed, residual, image, channels):
    # activations of 1 to 8 bits, so layer folds of up to 255 levels run
    # whole pipelines, on random and on saturating images, and so do
    # clamped thresholds and subnormal scales: engine == oracle and
    # analytic == measured cycles. A wide code may push an accumulator
    # past 16 bits; then both sides raise the same error
    _check_wide_activations(seed, residual, image, channels)


@settings(max_examples=100, deadline=None)
@wide_case
def test_wide_activations_end_to_end_popcount(seed, residual, image, channels):
    # the same nets with no float32 sign matrix allowed: every conv over
    # codes runs the XNOR/popcount datapath (quant.popcount_dot) at every
    # activation width, which the float product otherwise takes on
    # generated nets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "FLOAT32_SIGNS_MAX_BYTES", 0)
        _check_wide_activations(seed, residual, image, channels)


def _bn_slots(net, blob):
    """The (4, C) batchnorm slots of a writable blob, in blob order: the
    payload ends the blob, and blob_layout gives every slot's size."""
    shapes = [shape for layer in net.layers for _, shape in blob_layout(layer)]
    floats = np.frombuffer(blob, dtype="<f4",
                           offset=len(blob) - 4 * sum(math.prod(s) for s in shapes))
    slots, pos = [], 0
    for shape in shapes:
        if len(shape) == 2:
            slots.append(floats[pos:pos + math.prod(shape)].reshape(shape))
        pos += math.prod(shape)
    return slots


def _check_wide_activations(seed, residual, image, channels):
    rng = np.random.default_rng(seed)
    net = random_net(rng, force_residual=residual, max_act_bits=8)
    blob = bytearray(random_params(net, rng))
    img = random_image(rng, net)
    slots = _bn_slots(net, blob)
    for p in channels if slots else ():
        slot = slots[rng.integers(len(slots))]
        slot[:, rng.integers(slot.shape[1])] = p
    params = load_params(bytes(blob), net)
    if image != "random":
        img[...] = 0 if image == "zero" else (1 << net.input_shape.bits) - 1
    try:
        result = run(build_graph(net, params), img, ModelConfig())
    except AccumOverflowError as e:
        with pytest.raises(AccumOverflowError) as ref:
            dense_infer(net, params, img)
        assert str(ref.value) == str(e)
        return
    assert np.array_equal(result.output, dense_infer(net, params, img))
    assert result.report == estimate_cycles(net, ModelConfig())


@pytest.mark.parametrize("capacity", [None, 1, 3], ids=["default", "1", "3"])
def test_no_stage_writes_a_popped_chunk(monkeypatch, capacity):
    # a tee pushes the chunk it popped to both of its outputs, which is
    # sound only while no stage writes into a chunk it pops; every
    # pushed chunk is made read-only here, so such a write would raise
    push = Fifo.push

    def read_only_push(self, arr):
        arr = arr.view()
        arr.flags.writeable = False
        return push(self, arr)

    monkeypatch.setattr(Fifo, "push", read_only_push)
    rng = np.random.default_rng(77)
    nets = [random_net(rng, force_residual=i % 2 == 0) for i in range(20)]
    nets.append(BUILTIN_BUILDERS["vgg"]())
    for net in nets:
        params = load_params(random_params(net, rng), net)
        img = random_image(rng, net)
        result = run(build_graph(net, params, fifo_capacity=capacity), img, ModelConfig())
        assert np.array_equal(result.output, dense_infer(net, params, img)), net.name


def _skip_store_by_pixel(plans, join):
    # the run-ahead at every main pixel, the definition skip_store_elements
    # takes the maximum of in closed form
    conv_a = plans[join.main_src]
    prev = plans[conv_a.main_src]
    lead = sum(q.k - 1 - q.p for q in (conv_a, prev) if q.kind == "conv")
    h, w, s = conv_a.in_shape.h, conv_a.in_shape.w, conv_a.s
    mid = join.in_shape
    m = np.arange(mid.pixels)
    row = m // mid.w * s + lead
    col = np.minimum(m % mid.w * s + lead, w - 1)
    kept = -(-row // s) * mid.w + (row % s == 0) * (col // s + 1)
    kept = np.where(row < h, kept, mid.pixels)
    return mid.c * int((kept - m).max())


def test_skip_store_closed_form():
    rng = np.random.default_rng(11)
    nets = [build_resnet18(), parse_netdesc(RES_NET)]
    nets += [random_net(rng, force_residual=True) for _ in range(150)]
    joins = 0
    for net in nets:
        plans = expand_layers(net)
        for join in (p for p in plans if p.kind == "join"):
            assert skip_store_elements(plans, join) == _skip_store_by_pixel(plans, join)
            joins += 1
    assert joins > 100


def test_skip_store_is_tight(res_case):
    # one pixel short of skip_store_elements, the fork fills the skip
    # FIFO before the branch has brought the join the partner values
    # that would drain it
    net, params, img = res_case
    for name, depth in (("block1_join", 56), ("block2_join", 48)):
        graph = build_graph(net, params, fifo_capacity=1)
        join = next(s for s in graph.stages if s.name == name)
        assert join.skip_fifo.capacity == depth
        join.skip_fifo.capacity -= join.in_shape.c
        with pytest.raises(DeadlockError):
            run(graph, img, ModelConfig())


def test_skip_fifo_never_starves_join(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    run(graph, img, ModelConfig())
    joins = [s for s in graph.stages if isinstance(s, ResidualJoinStage)]
    assert joins
    assert all(j.stalled_on_skip == 0 for j in joins)
    for f in graph.fifos:
        assert f.max_occ <= f.capacity


def _deadlock_listing(err):
    # "pipeline deadlock; blocked stages: a, b; full FIFOs: ...; empty FIFOs: ..."
    parts = (part.split(": ", 1) for part in str(err.value).split("; ")[1:])
    return {key: names.split(", ") for key, names in parts}


def test_starved_pipeline_deadlocks(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    with pytest.raises(DeadlockError) as err:
        _drive_sweep(list(graph.stages), graph.fifos)  # no source feeding the pipe
    listing = _deadlock_listing(err)
    assert listing["blocked stages"] == [s.name for s in graph.stages]
    assert listing["full FIFOs"] == ["none"]
    assert listing["empty FIFOs"] == ["%s 0/%d" % (f.name, f.capacity) for f in graph.fifos]
    # a residual branch that never steps: the tee's output to it fills,
    # the tee's skip output fills too (it holds only the block's run-ahead),
    # and the join and everything past it see nothing
    graph = build_graph(net, params)
    stages = {s.name: s for s in graph.stages}
    branch, skip = stages["block1_a"].in_fifo, stages["block1_join"].skip_fifo
    graph.source_fifo.push(img.reshape(-1).astype(np.int32))
    with pytest.raises(DeadlockError) as err:
        _drive_sweep([s for s in graph.stages if s.name != "block1_a"], graph.fifos)
    listing = _deadlock_listing(err)
    sink = graph.sink_fifo
    assert "%s %d/%d" % (branch.name, branch.capacity, branch.capacity) \
        in listing["full FIFOs"]
    assert "%s 0/%d" % (sink.name, sink.capacity) in listing["empty FIFOs"]
    assert "%s 56/56" % skip.name in listing["full FIFOs"]


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_output_count_checked(res_case, extra):
    # the fc at the end fires once; made to emit one element too few or
    # too many, the run fails instead of returning that output
    net, params, img = res_case
    graph = build_graph(net, params)
    last, sink = graph.stages[-1], graph.sink_fifo
    compute = last._compute

    def skewed(windows):
        out = compute(windows).reshape(-1)
        return out[:extra] if extra < 0 else np.append(out, out[:extra])

    last._compute = skewed
    with pytest.raises(QnnError) as err:
        run(graph, img, ModelConfig())
    want = net.output_shape.elements
    assert sink.capacity == want
    if extra < 0:
        assert not isinstance(err.value, DeadlockError)
        assert "emitted %d of its %d output elements" % (want - 1, want) in str(err.value)
    else:
        listing = _deadlock_listing(err)
        assert listing["blocked stages"] == [last.name]
        assert listing["full FIFOs"] == ["%s %d/%d" % (sink.name, want, want)]


def test_graph_runs_one_frame(res_case):
    # a graph's stages and FIFOs are spent by its frame; a second run
    # says so instead of reporting a deadlock or a short output
    net, params, img = res_case
    graph = build_graph(net, params)
    run(graph, img, ModelConfig())
    with pytest.raises(QnnError, match="already run a frame") as err:
        run(graph, img, ModelConfig())
    assert not isinstance(err.value, DeadlockError)


def test_top_class(res_case):
    net, params, img = res_case
    res = run(build_graph(net, params), img, ModelConfig())
    assert res.top_class == int(np.argmax(res.output))
    assert len(res.output) == 5


# ---------------------------------------------------------------------------
# the engine and the oracle fail alike

def test_oracle_raises_the_engine_errors(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    for infer in (lambda image: run(graph, image),
                  lambda image: dense_infer(net, params, image)):
        with pytest.raises(ShapeError):
            infer(img[:, :-1])
    for bad in (params[:-1], params + [params[-1]]):
        for infer in (build_graph, lambda net, bad: dense_infer(net, bad, img)):
            with pytest.raises(ParamsError):
                infer(net, bad)


def _overflow_case(name):
    if name == "residual_chain":
        text, arrays, img = residual_overflow_chain()
    else:
        # an unfused conv whose fan-in can overflow 16 bits: all +1
        # weights on a saturated 3-bit image reach 11 * 11 * 40 * 7
        text = "input 11 11 40 3\nconv k=11 s=1 p=0 o=4 act=none\n"
        arrays = [None, {"weights": np.ones((11, 11, 40, 4))}]
        img = np.full((11, 11, 40), 7, dtype=np.uint8)
    net = parse_netdesc(text)
    return net, load_params(save_params(net, arrays), net), img


@pytest.mark.parametrize("name,value", [("unfused_conv", 33880),
                                        ("residual_chain", 32835)])
def test_engine_and_oracle_overflow_alike(name, value):
    net, params, img = _overflow_case(name)
    for infer in (lambda: run(build_graph(net, params), img),
                  lambda: dense_infer(net, params, img)):
        with pytest.raises(AccumOverflowError, match="value %d does not fit" % value):
            infer()


# ---------------------------------------------------------------------------
# partitions

def test_validate_partition_errors():
    validate_partition(Partition(((0, 3), (4, 6))), 7)
    with pytest.raises(PartitionError):
        validate_partition(Partition(((0, 3), (5, 6))), 7)  # gap
    with pytest.raises(PartitionError):
        validate_partition(Partition(((0, 3), (3, 6))), 7)  # overlap
    with pytest.raises(PartitionError):
        validate_partition(Partition(((0, 6),)), 8)  # short
    with pytest.raises(PartitionError):
        validate_partition(Partition(((0, 8),)), 8)  # long


def test_isolated_total_is_partition_transparent(res_case):
    net, params, img = res_case
    cfg = ModelConfig(stall_model="isolated")
    plans = expand_layers(net)
    n = len(plans)
    whole = estimate_cycles(net, cfg)
    for cut in (1, 3, n - 1):
        part = Partition(((0, cut - 1), (cut, n - 1)))
        split = estimate_cycles(net, cfg, partition=part)
        assert split.total_cycles == whole.total_cycles


@pytest.mark.parametrize("cin_mode", ["pixel", "element"])
@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_chained_two_device_totals(name, cin_mode):
    # under the chained model each device is its own chain: one range is
    # the whole net, and a cut never lengthens the longest chain nor
    # shortens it below the busiest stage
    net = BUILTIN_BUILDERS[name]()
    cfg = ModelConfig(cin_mode=cin_mode)
    n = len(expand_layers(net))
    whole = estimate_cycles(net, cfg)
    assert estimate_cycles(net, cfg, Partition(((0, n - 1),))) == whole
    for cut in range(1, n):
        split = estimate_cycles(net, cfg, Partition(((0, cut - 1), (cut, n - 1))))
        assert max(s.busy for s in split.stages) <= split.total_cycles <= whole.total_cycles


@pytest.mark.parametrize("cin_mode,whole,split", [("pixel", 136, 84), ("element", 156, 120)])
def test_chained_two_device_total_by_hand(cin_mode, whole, split):
    # 4x4x1 input, two 3x3 pad-1 convs (2 then 3 outputs), a 2x2 pool.
    # conv1 takes 6x6 = 36 padded units (20 of them pad, 1 channel) and
    # halts 16 x 2 = 32 cycles; conv2 takes 36 pixels (20 pad) or 72
    # elements (40 pad) and halts 16 x 3 = 48; the pool adds neither.
    # One chain: 36 + conv2's pads + 32 + 48. Cut after conv1: device 0
    # spans 36 + 32 = 68, device 1 conv2's 36 or 72 units + 48.
    net, _ = _load("input 4 4 1 2\nconv k=3 s=1 p=1 o=2 d=1.0 act=2\n"
                   "conv k=3 s=1 p=1 o=3 d=1.0 act=2\nmaxpool k=2 s=2\n")
    cfg = ModelConfig(cin_mode=cin_mode)
    assert estimate_cycles(net, cfg).total_cycles == whole
    part = Partition(((0, 0), (1, 2)))
    assert estimate_cycles(net, cfg, part).total_cycles == split


def test_link_bandwidth_frozen_two_bit():
    # 2-bit pixel stream at 105 MHz crossing a device boundary
    net, _ = _load("input 6 6 2 2\nconv k=3 s=1 p=1 o=3 d=1.0 act=2\n"
                   "maxpool k=2 s=2\n")
    part = Partition(((0, 0), (1, 1)))
    rep = simulate_partition(net, part, ModelConfig())
    assert len(rep) == 1
    assert rep[0].required_mbps == 210.0
    assert rep[0].ok


def test_link_overload_flagged():
    net, _ = _load("input 6 6 2 2\nconv k=3 s=1 p=1 o=3 d=1.0 act=2\n"
                   "maxpool k=2 s=2\n")
    part = Partition(((0, 0), (1, 1)))
    rep = simulate_partition(net, part, ModelConfig(link_gbps=0.2))
    assert not rep[0].ok


def test_skip_edge_loads_every_link_it_spans():
    # cut inside a residual block: the skip stream from the fork to the
    # join crosses both boundaries and must be charged to both links
    net, _ = _load(RES_NET)
    plans = expand_layers(net)
    names = [p.name for p in plans]
    a = names.index("block1_a")
    join = names.index("block1_join")
    part = Partition(((0, a - 1), (a, join - 1), (join, len(plans) - 1)))
    rep = simulate_partition(net, part, ModelConfig())
    for link in rep:
        assert any("block1_tee" in edge for edge in link.traffic)


def test_backward_edge_rejected():
    net, _ = _load(RES_NET)
    plans = expand_layers(net)
    n = len(plans)
    # reversing the device order of a contiguous split is impossible to
    # express with ranges, so emulate a backward edge via a degenerate
    # single-stage middle device ordering that breaks the daisy chain
    with pytest.raises(PartitionError):
        validate_partition(Partition(((3, n - 1), (0, 2))), n)
