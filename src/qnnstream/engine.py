"""Pipeline graph construction, execution, and cycle accounting.

Stages talk only through bounded FIFOs, so any schedule that respects
FIFO order computes the same streams (the graph is a Kahn network: one
producer and one consumer per edge, consumption order fixed by stage
state). The engine exploits that: run puts the whole frame in the
first FIFO and its driver sweeps the stages round-robin until every
stage is done, and any other schedule would produce the same outputs
and the same cycle reports. The output collects in the last FIFO.

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

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DeadlockError, ParamsError, PartitionError, QnnError, ShapeError
from .kernels import (
    AvgPoolStage,
    ConvStage,
    MaxPoolStage,
    ResidualJoinStage,
    SkipDownsampleStage,
    StreamShape,
    TeeWidenStage,
    line_buffer_capacity,
)
from .netdesc import expand_layers
from .quant import ceil_div, check_input_array


CIN_MODES = ("pixel", "element")
STALL_MODELS = ("chained", "isolated")


@dataclass(frozen=True)
class ModelConfig:
    cin_mode: str = CIN_MODES[0]
    stall_model: str = STALL_MODELS[0]
    c_mac: int = 1  # cycles per compute step
    clock_mhz: float = 105.0
    link_gbps: float = 2.0

    def __post_init__(self):
        if self.cin_mode not in CIN_MODES:
            raise QnnError("cin_mode must be %s" % " or ".join(CIN_MODES))
        if self.stall_model not in STALL_MODELS:
            raise QnnError("stall_model must be %s" % " or ".join(STALL_MODELS))
        # c_mac at most 2**32, clock and link in [2**-32, 2**32]: every
        # cycle total, wall time and link rate stays finite
        lo, hi = 2.0 ** -32, 2.0 ** 32
        if not (1 <= self.c_mac <= 1 << 32 and lo <= self.clock_mhz <= hi
                and lo <= self.link_gbps <= hi):
            raise QnnError("bad model configuration")


class Fifo:
    """Element FIFO carrying numpy chunks, bounded by what it shows.

    The hop contract every stage relies on: push(arr) keeps the whole
    array, without a copy, and returns its length. held, the elements
    pushed and not yet popped, is the one count push and pop keep. occ
    is derived from it, min(held, capacity): the most one capacity-wide
    pop can take. Only the deadlock report reads occ; every stage
    tests held and capacity. A producer whose push leaves held
    above capacity waits until pops bring it back down (kernels.Stage).
    pop(want) returns the oldest min(want, held) elements in push order:
    a slice of one pushed chunk when they lie in it, or one new array
    joining the chunks they span. Inside one step no other stage touches
    the FIFO, so one pop of a total takes what back-to-back pops of occ
    elements each would (the excess moving in as they pop); a stage
    sizes such a pop from held and capacity (kernels.Stage). Neither
    call writes into an array it is given. max_occ, the high-water mark
    of occ, is kept by push; run reads it to refuse a second frame.
    """

    def __init__(self, capacity: int, name: str):
        if capacity < 1:
            raise ShapeError("fifo capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.chunks = deque()
        self.head = 0  # elements of chunks[0] already popped
        self.held = 0
        self.max_occ = 0

    @property
    def occ(self) -> int:
        return min(self.held, self.capacity)

    def push(self, arr) -> int:
        n = len(arr)
        if n:
            self.chunks.append(arr)
            held = self.held = self.held + n
            if held > self.max_occ:
                cap = self.capacity
                self.max_occ = held if held < cap else cap
        return n

    def pop(self, want: int) -> np.ndarray:
        held = self.held
        if want > held:
            want = held
        if not want:
            return _EMPTY
        self.held = held - want
        chunks, head = self.chunks, self.head
        first = chunks[0]
        end = head + want  # where the pop ends, counted from first's start
        parts = []
        while end > len(first):  # whole chunks before the one it ends in
            parts.append(first[head:])
            chunks.popleft()
            end -= len(first)
            head = 0
            first = chunks[0]
        last = first[head:end]
        if end == len(first):
            chunks.popleft()
            end = 0
        self.head = end
        if parts:
            parts.append(last)
            return np.concatenate(parts)
        return last


_EMPTY = np.empty(0, dtype=np.int32)


class StageGraph:
    def __init__(self, net, plans, stages, fifos, source_fifo, sink_fifo):
        self.net = net
        self.plans = plans
        self.stages = stages
        self.fifos = fifos
        self.source_fifo = source_fifo
        self.sink_fifo = sink_fifo


# plan kinds that run on ConvStage, and those that slide a window
WEIGHTED_KINDS = ("firstconv", "conv", "fc")
WINDOWED_KINDS = WEIGHTED_KINDS + ("maxpool", "avgpool")


def window_shape(plan) -> StreamShape:
    """The stream a windowed stage slides its window over.

    That is the plan's input stream, except for fc: a fully connected
    layer is a 1x1 conv over one pixel of h*w*c channels, the same
    elements in the same (flatten) order.
    """
    ish = plan.in_shape
    if plan.kind == "fc":
        return StreamShape(1, 1, ish.elements, ish.kind, ish.bits)
    return ish


_POOLS = {"maxpool": MaxPoolStage, "avgpool": AvgPoolStage}


def _stage_for(plan, layer_params):
    if plan.kind in WEIGHTED_KINDS:
        cp = layer_params.convs.get(plan.role)
        if cp is None:
            raise ParamsError("missing weights for stage %s" % plan.name)
        return ConvStage(plan.name, window_shape(plan), plan.out_shape, cp.weights,
                         plan.s, plan.p, thresholds=cp.thresholds)
    if plan.kind in _POOLS:
        return _POOLS[plan.kind](plan.name, plan.in_shape, plan.out_shape,
                                 plan.k, plan.s, plan.p)
    if plan.kind == "join":
        if layer_params.join_thresholds is None:
            raise ParamsError("missing batchnorm for stage %s" % plan.name)
        return ResidualJoinStage(plan.name, plan.in_shape, layer_params.join_thresholds)
    if plan.kind == "tee":
        return TeeWidenStage(plan.name, plan.in_shape)
    if plan.kind == "subsample":
        return SkipDownsampleStage(plan.name, plan.in_shape, plan.out_shape, plan.s)
    raise QnnError("unknown stage kind %r" % plan.kind)


def _window_fill(plan) -> int:
    """Elements a windowed stage ingests before its first window fires."""
    ish = window_shape(plan)
    return line_buffer_capacity(ish.c, ish.w + 2 * plan.p, plan.k)


def skip_store_elements(plans, join_plan) -> int:
    """Skip store of a residual join in elements, the one rule for its
    skip FIFO (build_graph) and its register charge (stage_resources).

    It is the most elements the fork has put on the skip path that the
    join has not yet consumed, from the trigger rule. Between fork and
    join sit the block's first conv (stride s over the fork's H x W
    stream) and, when blocks chain, the previous block's stride-1
    second conv. A conv fires output (r, c) once input pixel
    (r*s + k - 1 - p, c*s + k - 1 - p) is in, so with lead the sum of
    k - 1 - p over both, main pixel (r, c) reaches the join once the
    fork has emitted pixel (r*s + lead, min(c*s + lead, W - 1)), or the
    whole frame if that row is past the last (bottom pad rows fire
    after the last real pixel). By then the skip path holds the fork
    pixels the stride-s subsample keeps up to that one, less the
    r*Wm + c the join took. That difference falls along a row and is
    the same at column 0 of every row before the whole-frame rows, so
    the maximum is at pixel (0, 0) or at the first whole-frame row.
    """
    conv_a = plans[join_plan.main_src]
    prev = plans[conv_a.main_src]
    lead = sum(q.k - 1 - q.p for q in (conv_a, prev) if q.kind == "conv")
    h, w, s = conv_a.in_shape.h, conv_a.in_shape.w, conv_a.s
    mid = join_plan.in_shape
    first = min(max(ceil_div(h - lead, s), 0), mid.h)  # first whole-frame row
    ahead = ceil_div(lead, s) * mid.w + (lead % s == 0) * (min(lead, w - 1) // s + 1)
    return mid.c * max(ahead if first else 0, (mid.h - first) * mid.w)


def plan_edges(plans):
    """Structural edge list: (src plan, dst plan, stream shape, from_skip,
    into_skip), the shape being the stream dst reads. from_skip says src
    emits the edge from its skip slot (a tee or a join feeding the skip
    path), into_skip that the edge is a join's skip input.

    The source feed and the final output are not included; they never
    cross a device link.
    """
    edges = []
    for p in plans:
        if p.main_src >= 0:
            # a subsample reads a tee's or a join's skip slot
            edges.append((p.main_src, p.index, p.in_shape, p.kind == "subsample", False))
        if p.kind == "join":
            from_skip = plans[p.skip_src].kind != "subsample"
            edges.append((p.skip_src, p.index, p.in_shape, from_skip, True))
    return edges


def build_graph(net, params, fifo_capacity: int = None) -> StageGraph:
    """Instantiate stages and FIFOs for a network.

    The source and inter-stage FIFOs default to one scan line of
    elements; fifo_capacity overrides them (any value >= 1 preserves
    outputs, only schedules change; below 1 it is a ShapeError). The
    FIFO into a join's skip input always takes skip_store_elements, the
    store the memory estimate charges: the fork's whole run-ahead across
    the block, so the adder never waits on the skip side. The sink FIFO
    after the last stage holds the net's whole output.
    """
    plans = expand_layers(net)
    if params is None or len(params) != len(net.layers):
        raise ParamsError("parameter list does not match the network")
    stages = [_stage_for(p, params[p.layer_index]) for p in plans]

    def regular_cap(shape):
        return shape.w * shape.c if fifo_capacity is None else fifo_capacity

    fifos = []
    source_fifo = Fifo(regular_cap(net.input_shape), "source->%s" % plans[0].name)
    fifos.append(source_fifo)
    stages[0].in_fifo = source_fifo
    for src, dst, shape, from_skip, into_skip in plan_edges(plans):
        cap = skip_store_elements(plans, plans[dst]) if into_skip else regular_cap(shape)
        fifo = Fifo(cap, "%s->%s" % (plans[src].name, plans[dst].name))
        fifos.append(fifo)
        setattr(stages[dst], "skip_fifo" if into_skip else "in_fifo", fifo)
        setattr(stages[src], "skip_out_fifo" if from_skip else "out_fifo", fifo)
    sink_fifo = Fifo(net.output_shape.elements, "%s->sink" % plans[-1].name)
    fifos.append(sink_fifo)
    stages[-1].out_fifo = sink_fifo
    return StageGraph(net, plans, stages, fifos, source_fifo, sink_fifo)


# ---------------------------------------------------------------------------
# execution driver

def _drive_sweep(stages, fifos):
    """Step every unfinished stage once per sweep, in order, until all
    are finished. A stage's state changes only in its own step, and a
    finished one (input ingested, no FIFO it feeds over capacity) pushes
    nothing more, so it stays finished and is dropped once a sweep ends.
    A sweep in which no step moved anything is a deadlock."""
    live = [t for t in stages if not t.finished]
    while live:
        progressed = ended = False
        for t in live:
            if t.step():
                progressed = True
            if t.ingest_done and not t.over:
                ended = True
        if ended:
            live = [t for t in live if not t.finished]
        if live and not progressed:
            raise DeadlockError([t.name for t in live],
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
    channels: int  # elements per input pixel, for unit conversion
    real_el: int
    pad_el: int
    compute: int
    fill_el: int
    first_compute: int


@dataclass(frozen=True)
class StageCycles:
    name: str
    in_units: int
    compute: int
    busy: int
    stall: int
    fill: int


class NamedStages:
    """A report with one row per stage in stages, each with a name."""

    def stage(self, name: str):
        """The row named name; a KeyError if no stage has that name."""
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class CycleReport(NamedStages):
    stages: tuple
    total_cycles: int
    bottleneck: str
    clock_mhz: float
    wall_ms: float
    cin_mode: str
    stall_model: str


def analytic_counters(plans):
    """Closed-form stage counters from shapes and the trigger rule."""
    out = []
    for p in plans:
        ish = p.in_shape
        pad_el, compute, fill_el, first = 0, 0, 1, 0
        if p.kind in WINDOWED_KINDS:
            pad_el = ((ish.h + 2 * p.p) * (ish.w + 2 * p.p) - ish.pixels) * ish.c
            fill_el = _window_fill(p)
        if p.kind in WEIGHTED_KINDS:
            compute, first = p.out_shape.pixels * p.out_ch, p.out_ch
        out.append(StageCounters(name=p.name, channels=ish.c,
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
        out.append(StageCounters(name=stage.name, channels=plan.in_shape.c,
                                 real_el=stage.real_el, pad_el=stage.pad_el,
                                 compute=stage.compute_cycles,
                                 fill_el=stage.fill_el,
                                 first_compute=stage.first_compute))
    return out


def assemble_report(counters, cfg: ModelConfig, partition=None) -> CycleReport:
    n = len(counters)
    in_units = []
    pad_units = []
    fills = []
    computes = []
    for c in counters:
        unit = c.channels if cfg.cin_mode == "pixel" else 1  # elements per input unit
        in_units.append((c.real_el + c.pad_el) // unit)
        pad_units.append(c.pad_el // unit)
        fills.append(ceil_div(c.fill_el, unit) + c.first_compute * cfg.c_mac)
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
        StageCycles(name=c.name, in_units=iu, compute=comp,
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
    Under a partition the chained model runs one chain per device.
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


def run(graph: StageGraph, image: np.ndarray, cfg: ModelConfig = None) -> RunResult:
    """Execute the pipeline on one input frame.

    image is H x W x C, row major, channel fastest, which is already the
    depth-first stream order. The flattened frame goes into the source
    FIFO whole, and the first stage takes it in as it pops. The output
    is what the sink FIFO holds once every stage is done: exactly the
    net's output elements, or a QnnError (a stage that emits more
    deadlocks on the full FIFO). The cycle report is assembled from the
    structural counters the stages collect, so runs of fresh graphs
    give identical reports. A graph runs one frame: a second run on it
    is a QnnError.
    """
    if graph.source_fifo.max_occ:  # the source FIFO has been fed
        raise QnnError("this graph has already run a frame; build a new one")
    cfg = cfg or ModelConfig()
    ish = graph.net.input_shape
    image = np.asarray(image)
    if image.shape != (ish.h, ish.w, ish.c):
        raise ShapeError("input is %r, network wants %r"
                         % (image.shape, (ish.h, ish.w, ish.c)))
    flat = check_input_array(image, ish.bits).reshape(-1).astype(np.int32)
    graph.source_fifo.push(flat)
    _drive_sweep(graph.stages, graph.fifos)
    sink, want = graph.sink_fifo, graph.net.output_shape.elements
    if sink.held != want:
        raise QnnError("%s: the net emitted %d of its %d output elements"
                       % (sink.name, sink.held, want))
    output = sink.pop(want).astype(np.int64)
    for fifo in graph.fifos:
        if fifo.held:
            raise QnnError("conservation violated on %s" % _occupancy(fifo))
    report = assemble_report(measured_counters(graph), cfg)
    return RunResult(output=output, report=report)


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Partition:
    """Contiguous stage ranges, one per device, in daisy-chain order."""

    ranges: tuple  # ((first_plan, last_plan), ...) inclusive


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
class LinkCheck:
    required_mbps: float
    capacity_mbps: float
    ok: bool
    traffic: tuple  # "src->dst" name of each edge crossing the cut


def cut_links(plans, cfg: ModelConfig):
    """The link a cut at each position needs, and whether it fits.

    Entry t is the LinkCheck of cut t, the link between plan t - 1 and
    plan t. Pixels cross at one element per cycle peak, so a stream
    needs its element bits x clock. The daisy chain routes an edge
    (src, dst), src < dst, over every link between its ends: it crosses
    cut t iff src < t <= dst, wherever the other cuts fall. A cut's Mbps
    are summed over its edges in plan_edges order, and it fits if they
    come to at most link_gbps * 1000. Cutting inside a residual block
    costs two 16-bit streams and is usually avoided.
    """
    capacity = cfg.link_gbps * 1000.0
    required = [0] * (len(plans) + 1)
    traffic = [[] for _ in required]
    for src, dst, shape, *_ in plan_edges(plans):
        edge = "%s->%s" % (plans[src].name, plans[dst].name)
        for t in range(src + 1, dst + 1):
            required[t] += shape.bits * cfg.clock_mhz
            traffic[t].append(edge)
    return [LinkCheck(required_mbps=req, capacity_mbps=capacity, ok=req <= capacity,
                      traffic=tuple(edges))
            for req, edges in zip(required, traffic)]


def simulate_partition(net, partition: Partition, cfg: ModelConfig = None) -> tuple:
    """Check every device-to-device link of a net's partition: the
    cut_links entry of the cut before each device's first stage, in
    chain order. The ranges must cover the net's stages."""
    cfg = cfg or ModelConfig()
    plans = expand_layers(net)
    validate_partition(partition, len(plans))
    checks = cut_links(plans, cfg)
    return tuple(checks[a] for a, _ in partition.ranges[1:])
