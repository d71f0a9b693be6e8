"""On-chip memory accounting and device partitioning.

Every stage is charged for the storage it would occupy in hardware:

  weight cache   one row of k*k*in_ch single-bit weights per output
                 channel, depth rounded up to the cache granule of 512
                 rows, held in M20K block RAM (512 deep x 40 wide)
  bn cache       four 16 bit words per output channel, also block RAM
  line buffer    registers, sized by the minimal-capacity rule
  skip fifo      16 bit registers, charged to the join that consumes it;
                 engine.skip_store_elements, which also sizes its FIFO

The depth granule is where the often-quoted waste comes from: a layer
with 384 output channels allocates 512 rows and strands exactly a
quarter of its cache.

Partitioning is contiguous in stream order (the devices form a daisy
chain) and cuts only where the streams crossing the cut fit the link,
unless no placement does; then it cuts anywhere and the link report
flags the cut that is over. One dynamic program, run row by row over
the device count, finds the fewest devices whose segments fit the
budget and, at that count, the split with the smallest largest block
RAM load.
"""

from dataclasses import dataclass

from .engine import (
    ModelConfig,
    NamedStages,
    Partition,
    WEIGHTED_KINDS,
    WINDOWED_KINDS,
    _window_fill,
    cut_links,
    skip_store_elements,
    window_shape,
)
from .errors import PartitionError, QnnError
from .netdesc import expand_layers
from .quant import ACCUM_BITS, ceil_div

CACHE_DEPTH_GRANULE = 512
M20K_DEPTH = 512
M20K_WIDTH = 40
M20K_BITS = M20K_DEPTH * M20K_WIDTH


@dataclass(frozen=True)
class StageResources:
    name: str
    weight_bits_used: int
    weight_bits: int  # after depth rounding
    bn_bits: int
    skip_bits: int  # skip fifo registers
    m20k: int
    ff: int

    @property
    def bram_bits(self) -> int:
        return self.weight_bits + self.bn_bits

    @property
    def waste(self) -> float:
        if not self.weight_bits:
            return 0.0
        return (self.weight_bits - self.weight_bits_used) / self.weight_bits


def _cache(rows_used: int, width: int):
    rows = ceil_div(rows_used, CACHE_DEPTH_GRANULE) * CACHE_DEPTH_GRANULE
    blocks = ceil_div(rows_used, M20K_DEPTH) * ceil_div(width, M20K_WIDTH)
    return rows_used * width, rows * width, blocks


def stage_resources(plans):
    out = []
    for p in plans:
        w_used = w_bits = bn_bits = buf_bits = skip_bits = m20k = 0
        if p.kind in WEIGHTED_KINDS:
            w_used, w_bits, m20k = _cache(p.out_ch, p.k * p.k * window_shape(p).c)
        elif p.kind == "join":
            skip_bits = skip_store_elements(plans, p) * p.in_shape.bits
        if p.fused:
            bn_bits = p.out_ch * 4 * ACCUM_BITS
            m20k += 2 * ceil_div(p.out_ch, M20K_DEPTH)
        # an fc's frame store is left uncharged (ROADMAP item 6, "The fc frame store")
        if p.kind in WINDOWED_KINDS and p.kind != "fc":
            buf_bits = _window_fill(p) * p.in_shape.bits
        out.append(StageResources(name=p.name, weight_bits_used=w_used,
                                  weight_bits=w_bits, bn_bits=bn_bits,
                                  skip_bits=skip_bits, m20k=m20k, ff=buf_bits + skip_bits))
    return out


@dataclass(frozen=True)
class ResourceReport(NamedStages):
    stages: tuple

    @property
    def total_m20k(self) -> int:
        return sum(s.m20k for s in self.stages)

    @property
    def total_ff(self) -> int:
        return sum(s.ff for s in self.stages)

    @property
    def total_bram_bits(self) -> int:
        return sum(s.bram_bits for s in self.stages)


def estimate_resources(net) -> ResourceReport:
    return ResourceReport(stages=tuple(stage_resources(expand_layers(net))))


@dataclass(frozen=True)
class DeviceBudget:
    name: str
    m20k: int
    ff: int

    def fits(self, m20k: int, ff: int) -> bool:
        return m20k <= self.m20k and ff <= self.ff


STRATIX_V_5SGSD8 = DeviceBudget(name="5SGSD8", m20k=2567, ff=1_050_000)
MAX_DEVICES = 8


@dataclass(frozen=True)
class DeviceReport:
    stages: tuple
    m20k: int
    ff: int
    bram_bits: int


@dataclass(frozen=True)
class PlacementReport:
    devices: tuple
    partition: Partition
    links: tuple  # engine.LinkCheck of each device-to-device link, in chain order

    @property
    def feasible(self) -> bool:
        return all(link.ok for link in self.links)


def _fewest_balanced_ranges(res, budget, allowed):
    """Fewest contiguous segments that fit the budget, cutting only at
    allowed positions, split so the largest block RAM load is smallest;
    None if no such split exists.

    Row j of the DP maps every prefix of the plans it reaches to the
    smallest largest bram load of a split of that prefix into j feasible
    segments. The first row that reaches the whole chain gives the
    fewest devices, and its split is already balanced. A row that
    reaches no prefix ends the search: no later row can.
    """
    n = len(res)
    pm, pf, pb = [0], [0], [0]
    for r in res:
        pm.append(pm[-1] + r.m20k)
        pf.append(pf[-1] + r.ff)
        pb.append(pb[-1] + r.bram_bits)
    ends = [i for i in range(1, n + 1) if i == n or allowed[i]]
    row = {0: 0}  # prefix -> smallest largest load, in prefix order
    backs = []  # per row: prefix -> start of its last segment
    while row:
        prev, row, back = row, {}, {}
        for i in ends:
            for t, load in prev.items():
                if t >= i:
                    break
                if budget.fits(pm[i] - pm[t], pf[i] - pf[t]):
                    cand = max(load, pb[i] - pb[t])
                    if i not in row or cand < row[i]:
                        row[i], back[i] = cand, t
        backs.append(back)
        if n in row:
            bounds = [n]
            for back in reversed(backs):
                bounds.append(back[bounds[-1]])
            bounds.reverse()
            return [(a, b - 1) for a, b in zip(bounds, bounds[1:])]
    return None


def partition_network(net, budget: DeviceBudget = STRATIX_V_5SGSD8,
                      max_devices: int = MAX_DEVICES,
                      cfg: ModelConfig = None) -> PlacementReport:
    """Place a net's stages onto devices; a malformed limit or budget is a
    QnnError, a net the limit and budget cannot hold a PartitionError."""
    if max_devices < 1 or budget.m20k < 0 or budget.ff < 0:
        raise QnnError("device limit below 1 or negative budget")
    cfg = cfg or ModelConfig()
    plans = expand_layers(net)
    res = stage_resources(plans)
    for r in res:
        if not budget.fits(r.m20k, r.ff):
            raise PartitionError("stage %s alone exceeds the %s budget"
                                 % (r.name, budget.name))
    checks = cut_links(plans, cfg)
    ranges = _fewest_balanced_ranges(res, budget, [c.ok for c in checks])
    if ranges is None:
        # no bandwidth-clean placement; fall back and let the link
        # report say which cut is over
        ranges = _fewest_balanced_ranges(res, budget, [True] * (len(plans) + 1))
    if len(ranges) > max_devices:
        raise PartitionError("network needs %d devices, limit is %d"
                             % (len(ranges), max_devices))
    devices = []
    for a, b in ranges:
        devices.append(DeviceReport(
            stages=tuple(plans[i].name for i in range(a, b + 1)),
            m20k=sum(res[i].m20k for i in range(a, b + 1)),
            ff=sum(res[i].ff for i in range(a, b + 1)),
            bram_bits=sum(res[i].bram_bits for i in range(a, b + 1))))
    return PlacementReport(devices=tuple(devices), partition=Partition(ranges=tuple(ranges)),
                           links=tuple(checks[a] for a, _ in ranges[1:]))
