"""Pipeline graph construction, execution, and cycle accounting.

Stages talk only through bounded FIFOs, so any schedule that respects
FIFO order computes the same streams (the graph is a Kahn network: one
producer and one consumer per edge, consumption order fixed by stage
state). The engine exploits that: its driver sweeps stages round-robin
until every stage is done, and any other schedule would produce the
same outputs and the same cycle reports.

Cycle numbers never come from wall time. Stages count structural events
(elements ingested, pads injected, compute halts, ingest depth at first
output) and the report assembles totals from those counters under a
configurable model:

  cin_mode     what one input cycle feeds: a whole pixel or one element
  stall_model  how per-stage time composes into pipeline time

The chained model treats each device's stages as one synchronous chain
fed at one unit per cycle: the span is the entry stage's input units
plus every pad injection and compute halt downstream, since each of
those pauses the shared feed. The isolated model instead takes the
slowest stage plus the sum of first-output fill latencies; it is the
partition-transparent reading, while chained matches how a fused
hardware pipeline actually backpressures.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DeadlockError, ParamsError, PartitionError, QnnError, ShapeError
from .kernels import (
    AvgPoolStage,
    ConvStage,
    FcStage,
    FirstConvStage,
    MaxPoolStage,
    ResidualJoinStage,
    SkipDownsampleStage,
    TeeWidenStage,
    line_buffer_capacity,
)
from .netdesc import expand_layers


@dataclass(frozen=True)
class ModelConfig:
    cin_mode: str = "pixel"  # pixel | element
    stall_model: str = "chained"  # chained | isolated
    c_mac: int = 1
    clock_mhz: float = 105.0
    link_gbps: float = 2.0

    def __post_init__(self):
        if self.cin_mode not in ("pixel", "element"):
            raise QnnError("cin_mode must be pixel or element")
        if self.stall_model not in ("chained", "isolated"):
            raise QnnError("stall_model must be chained or isolated")
        finite = math.isfinite(self.clock_mhz) and math.isfinite(self.link_gbps)
        if not finite or self.clock_mhz <= 0 or self.c_mac < 1 or self.link_gbps <= 0:
            raise QnnError("bad model configuration")


class Fifo:
    """Bounded element FIFO carrying numpy chunks.

    push accepts as many leading elements as capacity allows and reports
    the count, so producers with a full peer make partial progress
    instead of dropping or blocking. pop hands back up to the requested
    number of elements. Occupancy can never exceed capacity.
    """

    def __init__(self, capacity: int, name: str):
        if capacity < 1:
            raise ShapeError("fifo capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.chunks = deque()
        self.head = 0
        self.occ = 0
        self.pushed = 0
        self.popped = 0
        self.max_occ = 0

    def push(self, arr) -> int:
        take = min(self.capacity - self.occ, len(arr))
        if take:
            self.chunks.append(arr[:take] if take < len(arr) else arr)
            self.occ += take
            self.pushed += take
            if self.occ > self.max_occ:
                self.max_occ = self.occ
        return take

    def pop(self, want: int) -> np.ndarray:
        want = min(want, self.occ)
        if not want:
            return _EMPTY
        parts = []
        need = want
        while need:
            first = self.chunks[0]
            take = min(need, len(first) - self.head)
            parts.append(first[self.head:self.head + take])
            self.head += take
            need -= take
            if self.head == len(first):
                self.chunks.popleft()
                self.head = 0
        self.occ -= want
        self.popped += want
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)


_EMPTY = np.empty(0, dtype=np.int32)


class _Source:
    """Feeds the flattened input stream into the first FIFO."""

    def __init__(self, data: np.ndarray, fifo: Fifo):
        self.data = data
        self.fifo = fifo
        self.pos = 0
        self.name = "source"

    def step(self) -> bool:
        if self.pos >= len(self.data):
            return False
        taken = self.fifo.push(self.data[self.pos:])
        self.pos += taken
        return taken > 0

    @property
    def finished(self) -> bool:
        return self.pos >= len(self.data)


class _Sink:
    """Drains the final FIFO into the result buffer."""

    def __init__(self, fifo: Fifo, expected: int):
        self.fifo = fifo
        self.expected = expected
        self.got = []
        self.count = 0
        self.name = "sink"

    def step(self) -> bool:
        chunk = self.fifo.pop(self.expected - self.count)
        if not len(chunk):
            return False
        self.got.append(chunk)
        self.count += len(chunk)
        return True

    @property
    def finished(self) -> bool:
        return self.count >= self.expected

    def result(self) -> np.ndarray:
        if not self.got:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.got).astype(np.int64)


class StageGraph:
    def __init__(self, net, plans, stages, fifos, source_fifo, sink_fifo):
        self.net = net
        self.plans = plans
        self.stages = stages
        self.fifos = fifos
        self.source_fifo = source_fifo
        self.sink_fifo = sink_fifo


def _stage_for(plan, layer_params):
    if plan.kind in ("conv", "firstconv"):
        cp = layer_params.convs.get(plan.role)
        if cp is None:
            raise ParamsError("missing weights for stage %s" % plan.name)
        cls = FirstConvStage if plan.kind == "firstconv" else ConvStage
        return cls(plan.name, plan.in_shape, plan.out_shape, cp.weights,
                   plan.s, plan.p, thresholds=cp.thresholds)
    if plan.kind == "fc":
        cp = layer_params.convs.get("main")
        if cp is None:
            raise ParamsError("missing weights for stage %s" % plan.name)
        return FcStage(plan.name, plan.in_shape, plan.out_shape, cp.weights,
                       thresholds=cp.thresholds)
    if plan.kind == "maxpool":
        return MaxPoolStage(plan.name, plan.in_shape, plan.out_shape,
                            plan.k, plan.s, plan.p)
    if plan.kind == "avgpool":
        return AvgPoolStage(plan.name, plan.in_shape, plan.out_shape,
                            plan.k, plan.s, plan.p)
    if plan.kind == "join":
        if layer_params.join_thresholds is None:
            raise ParamsError("missing batchnorm for stage %s" % plan.name)
        return ResidualJoinStage(plan.name, plan.in_shape,
                                 layer_params.join_thresholds, plan.act_bits)
    if plan.kind == "tee":
        return TeeWidenStage(plan.name, plan.in_shape)
    if plan.kind == "subsample":
        return SkipDownsampleStage(plan.name, plan.in_shape, plan.out_shape, plan.s)
    raise QnnError("unknown stage kind %r" % plan.kind)


def _window_fill(plan) -> int:
    """Elements a windowed stage ingests before its first window fires."""
    return line_buffer_capacity(plan.in_shape.c, plan.in_shape.w + 2 * plan.p, plan.k)


def skip_store_elements(plans, join_plan) -> int:
    """Provisioned skip store size for a residual join, in elements.

    Sized like the line buffer of the block's first convolution: that
    buffer is what delays the compute path, so a skip store of the same
    element count has the partner value ready when the adder needs it.
    Holds whenever the two convolutions between fork and join keep the
    usual half-window padding and the stream rate does not grow.
    """
    return _window_fill(plans[join_plan.main_src])


def skip_capacity(plans, join_plan) -> int:
    """Simulated skip FIFO depth for a residual join, in elements.

    The fork keeps emitting sums while the convolutions between it and
    the join fill their windows, so the FIFO must absorb that whole
    run-ahead or the fork stalls and starves the compute path into a
    cycle. The bound sums the fill delay of the (up to) two
    convolutions in between, rescales it by the element-rate change
    across the block, and caps it at one full stream. The provisioned
    store size is kept as a floor.
    """
    conv_a = plans[join_plan.main_src]
    need = _window_fill(conv_a) + 2 * conv_a.in_shape.w * conv_a.in_shape.c
    prev = plans[conv_a.main_src] if conv_a.main_src >= 0 else None
    if prev is not None and prev.kind == "conv":
        need += _window_fill(prev)
    out_els = conv_a.out_shape.elements
    bound = -(-need * out_els // conv_a.in_shape.elements)
    total = out_els + 2 * conv_a.out_shape.w * conv_a.out_shape.c
    return max(skip_store_elements(plans, join_plan), min(bound, total))


def plan_edges(plans):
    """Structural edge list: (src plan, dst plan, stream shape, is_skip).

    The source feed and the final output are not included; they never
    cross a device link.
    """
    edges = []
    for p in plans:
        if p.main_src >= 0:
            q = plans[p.main_src]
            on_skip_path = p.kind == "subsample"
            shape = q.skip_shape if (on_skip_path and q.skip_shape is not None) else q.out_shape
            edges.append((q.index, p.index, shape, on_skip_path))
        if p.kind == "join":
            q = plans[p.skip_src]
            shape = q.skip_shape if q.kind in ("tee", "join") else q.out_shape
            edges.append((q.index, p.index, shape, True))
    return edges


def build_graph(net, params, fifo_capacity: int = None) -> StageGraph:
    """Instantiate stages and FIFOs for a network.

    Regular FIFOs default to one scan line of elements; fifo_capacity
    overrides them (any value >= 1 preserves outputs, only schedules
    change). The FIFO into a join's skip input always takes
    skip_capacity, which covers the fork's whole run-ahead across the
    block and so keeps the adder from waiting on the skip side. That is
    larger than the provisioned store of skip_store_elements (1.4 to 2.9
    times on resnet18's joins); at the store size alone joins can stall.
    """
    plans = expand_layers(net)
    if params is None or len(params) != len(net.layers):
        raise ParamsError("parameter list does not match the network")
    stages = [_stage_for(p, params[p.layer_index]) for p in plans]

    def regular_cap(shape):
        if fifo_capacity is not None:
            return max(1, fifo_capacity)
        return shape.w * shape.c

    fifos = []
    source_fifo = Fifo(regular_cap(net.input_shape), "source->%s" % plans[0].name)
    fifos.append(source_fifo)
    stages[0].in_fifo = source_fifo
    for src, dst, shape, is_skip in plan_edges(plans):
        p, q = plans[dst], plans[src]
        into_skip = p.kind == "join" and is_skip and q.index == p.skip_src
        cap = skip_capacity(plans, p) if into_skip else regular_cap(shape)
        fifo = Fifo(cap, "%s->%s" % (q.name, p.name))
        fifos.append(fifo)
        consumer = stages[dst]
        if into_skip:
            consumer.skip_fifo = fifo
        else:
            consumer.in_fifo = fifo
        producer = stages[src]
        from_skip_slot = is_skip and q.kind in ("tee", "join")
        if from_skip_slot:
            producer.skip_out_fifo = fifo
        else:
            producer.out_fifo = fifo
    sink_fifo = Fifo(regular_cap(net.output_shape), "%s->sink" % plans[-1].name)
    fifos.append(sink_fifo)
    stages[-1].out_fifo = sink_fifo
    return StageGraph(net, plans, stages, fifos, source_fifo, sink_fifo)


# ---------------------------------------------------------------------------
# execution driver

def _drive_sweep(tasks, fifos):
    while True:
        progressed = False
        unfinished = []
        for t in tasks:
            if t.finished:
                continue
            if t.step():
                progressed = True
            if not t.finished:
                unfinished.append(t.name)
        if not unfinished:
            return
        if not progressed:
            raise DeadlockError(unfinished,
                                [_occupancy(f) for f in fifos if f.occ == f.capacity],
                                [_occupancy(f) for f in fifos if not f.occ])


def _occupancy(fifo: Fifo) -> str:
    return "%s %d/%d" % (fifo.name, fifo.occ, fifo.capacity)


# ---------------------------------------------------------------------------
# cycle accounting

@dataclass(frozen=True)
class StageCounters:
    """Structural event counts for one stage, schedule independent."""

    name: str
    kind: str
    channels: int  # elements per input pixel, for unit conversion
    real_el: int
    pad_el: int
    compute: int
    fill_el: int
    first_compute: int


@dataclass(frozen=True)
class StageCycles:
    name: str
    kind: str
    in_units: int
    compute: int
    busy: int
    stall: int
    fill: int


@dataclass(frozen=True)
class CycleReport:
    stages: tuple
    total_cycles: int
    bottleneck: str
    clock_mhz: float
    wall_ms: float
    cin_mode: str
    stall_model: str

    def stage(self, name: str) -> StageCycles:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def analytic_counters(plans):
    """Closed-form stage counters from shapes and the trigger rule."""
    out = []
    for p in plans:
        ish = p.in_shape
        if p.kind in ("conv", "firstconv", "maxpool", "avgpool"):
            hp, wp = ish.h + 2 * p.p, ish.w + 2 * p.p
            pad_el = (hp * wp - ish.h * ish.w) * ish.c
            is_conv = p.kind in ("conv", "firstconv")
            compute = p.out_shape.pixels * p.out_ch if is_conv else 0
            fill_el = _window_fill(p)
            first = p.out_ch if is_conv else 0
        elif p.kind == "fc":
            pad_el = 0
            compute = p.out_ch
            fill_el = ish.elements
            first = p.out_ch
        else:  # join | tee | subsample
            pad_el = 0
            compute = 0
            fill_el = 1
            first = 0
        out.append(StageCounters(name=p.name, kind=p.kind, channels=ish.c,
                                 real_el=ish.elements, pad_el=pad_el,
                                 compute=compute, fill_el=fill_el,
                                 first_compute=first))
    return out


def measured_counters(graph: StageGraph):
    """The same counters, read back from a completed run."""
    out = []
    for plan, stage in zip(graph.plans, graph.stages):
        if stage.fill_el is None:
            raise QnnError("stage %s never produced output" % stage.name)
        out.append(StageCounters(name=stage.name, kind=plan.kind,
                                 channels=plan.in_shape.c,
                                 real_el=stage.real_el, pad_el=stage.pad_el,
                                 compute=stage.compute_cycles,
                                 fill_el=stage.fill_el,
                                 first_compute=stage.first_compute))
    return out


def _ceil_div(a, b):
    return -(-a // b)


def assemble_report(counters, cfg: ModelConfig, partition=None) -> CycleReport:
    n = len(counters)
    in_units = []
    pad_units = []
    fills = []
    computes = []
    for c in counters:
        if cfg.cin_mode == "pixel":
            iu = (c.real_el + c.pad_el) // c.channels
            pu = c.pad_el // c.channels
            fu = _ceil_div(c.fill_el, c.channels)
        else:
            iu = c.real_el + c.pad_el
            pu = c.pad_el
            fu = c.fill_el
        in_units.append(iu)
        pad_units.append(pu)
        fills.append(fu + c.first_compute * cfg.c_mac)
        computes.append(c.compute * cfg.c_mac)
    busy = [iu + comp for iu, comp in zip(in_units, computes)]
    ranges = partition.ranges if partition is not None else ((0, n - 1),)
    if cfg.stall_model == "isolated":
        total = max(busy) + sum(fills)
    else:
        spans = []
        for a, b in ranges:
            span = in_units[a] + sum(pad_units[i] for i in range(a + 1, b + 1)) \
                + sum(computes[i] for i in range(a, b + 1))
            spans.append(span)
        total = max(spans)
    if total < max(busy):
        raise QnnError("cycle model inconsistency: total below busiest stage")
    bottleneck = counters[int(np.argmax(busy))].name
    stages = tuple(
        StageCycles(name=c.name, kind=c.kind, in_units=iu, compute=comp,
                    busy=bz, stall=total - bz, fill=fl)
        for c, iu, comp, bz, fl in zip(counters, in_units, computes, busy, fills))
    wall_ms = total / (cfg.clock_mhz * 1e3)
    return CycleReport(stages=stages, total_cycles=total, bottleneck=bottleneck,
                       clock_mhz=cfg.clock_mhz, wall_ms=wall_ms,
                       cin_mode=cfg.cin_mode, stall_model=cfg.stall_model)


def estimate_cycles(net, cfg: ModelConfig = None, partition=None) -> CycleReport:
    """Analytic cycle report, no data required.

    Equals the counters measured by run() exactly on any network small
    enough to simulate; the test suite holds the two sides together.
    """
    cfg = cfg or ModelConfig()
    plans = expand_layers(net)
    if partition is not None:
        validate_partition(partition, len(plans))
    return assemble_report(analytic_counters(plans), cfg, partition)


# ---------------------------------------------------------------------------
# running

@dataclass
class RunResult:
    output: np.ndarray
    report: CycleReport

    @property
    def top_class(self) -> int:
        return int(np.argmax(self.output))


def run(graph: StageGraph, image: np.ndarray, cfg: ModelConfig = None,
        partition=None) -> RunResult:
    """Execute the pipeline on one input frame.

    image is H x W x C, row major, channel fastest, which is already the
    depth-first stream order. The cycle report is assembled from the
    structural counters the stages collect, so repeated runs give
    identical reports.
    """
    cfg = cfg or ModelConfig()
    ish = graph.net.input_shape
    image = np.asarray(image)
    if image.shape != (ish.h, ish.w, ish.c):
        raise ShapeError("input is %r, network wants %r"
                         % (image.shape, (ish.h, ish.w, ish.c)))
    flat = image.reshape(-1).astype(np.int32)
    if flat.min() < 0 or flat.max() >= (1 << ish.bits):
        raise ShapeError("input values exceed %d bits" % ish.bits)
    if partition is not None:
        validate_partition(partition, len(graph.plans))
    source = _Source(flat, graph.source_fifo)
    sink = _Sink(graph.sink_fifo, graph.net.output_shape.elements)
    tasks = [source] + list(graph.stages) + [sink]
    _drive_sweep(tasks, graph.fifos)
    for fifo in graph.fifos:
        if fifo.occ != 0 or fifo.pushed != fifo.popped:
            raise QnnError("conservation violated on %s" % fifo.name)
    report = assemble_report(measured_counters(graph), cfg, partition)
    return RunResult(output=sink.result(), report=report)


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Partition:
    """Contiguous stage ranges, one per device, in daisy-chain order."""

    ranges: tuple  # ((first_plan, last_plan), ...) inclusive

    @property
    def devices(self) -> int:
        return len(self.ranges)


def validate_partition(partition: Partition, n_stages: int):
    expect = 0
    for a, b in partition.ranges:
        if a != expect or b < a:
            raise PartitionError("device ranges must be contiguous and cover "
                                 "all stages once")
        expect = b + 1
    if expect != n_stages:
        raise PartitionError("device ranges cover %d of %d stages"
                             % (expect, n_stages))


@dataclass(frozen=True)
class LinkTraffic:
    edge: str
    required_mbps: float


def edge_loads(plans, clock_mhz: float):
    """Link load of every stream edge: (src, dst, Mbps, the cuts it loads).

    Pixels cross at one element per cycle peak, so a stream needs its
    element bits x clock. Cut t is the link between plan t - 1 and plan
    t. The daisy chain routes an edge (src, dst), src < dst, over every
    link between its ends: it loads cut t iff src < t <= dst, wherever
    the other cuts fall.
    """
    return [(src, dst, shape.bits * clock_mhz, range(src + 1, dst + 1))
            for src, dst, shape, _ in plan_edges(plans)]


@dataclass(frozen=True)
class LinkCheck:
    link: int  # between device i and i+1
    required_mbps: float
    capacity_mbps: float
    ok: bool
    traffic: tuple


@dataclass(frozen=True)
class PartitionReport:
    partition: Partition
    links: tuple
    all_ok: bool


def simulate_partition(net, partition: Partition, cfg: ModelConfig = None) -> PartitionReport:
    """Check every device-to-device link against its bandwidth budget.

    Link i, between device i and i + 1, is the cut before the first
    stage of device i + 1 and carries every edge_loads stream that loads
    that cut.
    """
    cfg = cfg or ModelConfig()
    plans = expand_layers(net)
    validate_partition(partition, len(plans))
    cuts = [a for a, _ in partition.ranges[1:]]
    per_link = [[] for _ in cuts]
    for src, dst, mbps, spanned in edge_loads(plans, cfg.clock_mhz):
        for link, cut in enumerate(cuts):
            if cut in spanned:
                edge = "%s->%s" % (plans[src].name, plans[dst].name)
                per_link[link].append(LinkTraffic(edge=edge, required_mbps=mbps))
    capacity = cfg.link_gbps * 1000.0
    links = []
    all_ok = True
    for i, traffic in enumerate(per_link):
        req = sum(t.required_mbps for t in traffic)
        ok = req <= capacity
        all_ok = all_ok and ok
        links.append(LinkCheck(link=i, required_mbps=req, capacity_mbps=capacity,
                               ok=ok, traffic=tuple(traffic)))
    return PartitionReport(partition=partition, links=tuple(links), all_ok=all_ok)
