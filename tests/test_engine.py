import numpy as np
import pytest

from qnnstream.engine import (
    ModelConfig,
    Partition,
    build_graph,
    estimate_cycles,
    run,
    simulate_partition,
    validate_partition,
    _drive_sweep,
    _Source,
)
from qnnstream.errors import (
    DeadlockError,
    PartitionError,
    QnnError,
    ShapeError,
)
from qnnstream.netdesc import (
    expand_layers,
    load_params,
    parse_netdesc,
    random_params,
)

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
    with pytest.raises(QnnError):
        ModelConfig(c_mac=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(QnnError):
            ModelConfig(clock_mhz=bad)
        with pytest.raises(QnnError):
            ModelConfig(link_gbps=bad)


# ---------------------------------------------------------------------------
# execution semantics

def test_run_validates_input(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    with pytest.raises(ShapeError):
        run(graph, img[:-1], ModelConfig())
    bad = img.copy().astype(np.int32)
    bad[0, 0, 0] = 4  # out of range for 2-bit codes
    with pytest.raises(QnnError):
        run(build_graph(net, params), bad, ModelConfig())


def test_fifo_conservation(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    run(graph, img, ModelConfig())
    for f in graph.fifos:
        assert f.occ == 0
        assert f.pushed == f.popped


@pytest.mark.parametrize("capacity", [1, 2, 3, 7, None],
                         ids=["1", "2", "3", "7", "default"])
def test_tiny_fifo_capacity_same_output(res_case, capacity):
    # any capacity >= 1 only changes the schedule; a second default-sized
    # run also pins that repeated runs agree
    net, params, img = res_case
    base = run(build_graph(net, params), img, ModelConfig())
    other = run(build_graph(net, params, fifo_capacity=capacity), img,
                ModelConfig())
    assert np.array_equal(other.output, base.output)
    assert other.report == base.report


def test_skip_fifo_never_starves_join(res_case):
    net, params, img = res_case
    graph = build_graph(net, params)
    run(graph, img, ModelConfig())
    joins = [s for s in graph.stages if s.kind == "join"]
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
    # the tee's skip output holds part of a frame, and the join and
    # everything past it see nothing
    graph = build_graph(net, params)
    stages = {s.name: s for s in graph.stages}
    branch, skip = stages["block1_a"].in_fifo, stages["block1_join"].skip_fifo
    source = _Source(img.reshape(-1).astype(np.int32), graph.source_fifo)
    with pytest.raises(DeadlockError) as err:
        _drive_sweep([source] + [s for s in graph.stages if s.name != "block1_a"],
                     graph.fifos)
    listing = _deadlock_listing(err)
    sink = graph.sink_fifo
    assert "%s %d/%d" % (branch.name, branch.capacity, branch.capacity) \
        in listing["full FIFOs"]
    assert "%s 0/%d" % (sink.name, sink.capacity) in listing["empty FIFOs"]
    assert 0 < skip.occ < skip.capacity
    assert not any(entry.startswith(skip.name + " ")
                   for entry in listing["full FIFOs"] + listing["empty FIFOs"])


def test_top_class(res_case):
    net, params, img = res_case
    res = run(build_graph(net, params), img, ModelConfig())
    assert res.top_class == int(np.argmax(res.output))
    assert len(res.output) == 5


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


def test_link_bandwidth_frozen_two_bit():
    # 2-bit pixel stream at 105 MHz crossing a device boundary
    net, _ = _load("input 6 6 2 2\nconv k=3 s=1 p=1 o=3 d=1.0 act=2\n"
                   "maxpool k=2 s=2\n")
    part = Partition(((0, 0), (1, 1)))
    rep = simulate_partition(net, part, ModelConfig())
    assert len(rep.links) == 1
    assert rep.links[0].required_mbps == 210.0
    assert rep.links[0].ok
    assert rep.all_ok


def test_link_overload_flagged():
    net, _ = _load("input 6 6 2 2\nconv k=3 s=1 p=1 o=3 d=1.0 act=2\n"
                   "maxpool k=2 s=2\n")
    part = Partition(((0, 0), (1, 1)))
    rep = simulate_partition(net, part, ModelConfig(link_gbps=0.2))
    assert not rep.links[0].ok
    assert not rep.all_ok


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
    for link in rep.links:
        assert any("block1_tee" in t.edge for t in link.traffic)


def test_backward_edge_rejected():
    net, _ = _load(RES_NET)
    plans = expand_layers(net)
    n = len(plans)
    # reversing the device order of a contiguous split is impossible to
    # express with ranges, so emulate a backward edge via a degenerate
    # single-stage middle device ordering that breaks the daisy chain
    with pytest.raises(PartitionError):
        validate_partition(Partition(((3, n - 1), (0, 2))), n)
