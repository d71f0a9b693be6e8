"""On-chip memory accounting and device partitioning.

Every stage is charged for the storage it would occupy in hardware:

  weight cache   one row of k*k*in_ch single-bit weights per output
                 channel, depth rounded up to the cache granule of 512
                 rows, held in M20K block RAM (512 deep x 40 wide)
  bn cache       four 16 bit words per output channel, also block RAM
  line buffer    registers, sized by the minimal-capacity rule
  skip fifo      registers, charged to the join that consumes it

The depth granule is where the often-quoted waste comes from: a layer
with 384 output channels allocates 512 rows and strands exactly a
quarter of its cache.

Partitioning is contiguous in stream order (the devices form a daisy
chain). A greedy first-fit scan gives the minimal device count, which
is optimal for contiguous segments under additive budgets, and a second
dynamic-programming pass re-cuts at that count to balance the largest
block RAM load.
"""

from dataclasses import dataclass

from .engine import (
    ModelConfig,
    Partition,
    _ceil_div,
    _window_fill,
    edge_loads,
    simulate_partition,
    skip_store_elements,
)
from .errors import PartitionError
from .netdesc import expand_layers

CACHE_DEPTH_GRANULE = 512
M20K_DEPTH = 512
M20K_WIDTH = 40
M20K_BITS = M20K_DEPTH * M20K_WIDTH


@dataclass(frozen=True)
class StageResources:
    name: str
    kind: str
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
    rows = _ceil_div(rows_used, CACHE_DEPTH_GRANULE) * CACHE_DEPTH_GRANULE
    blocks = _ceil_div(rows_used, M20K_DEPTH) * _ceil_div(width, M20K_WIDTH)
    return rows_used * width, rows * width, blocks


def stage_resources(plans):
    out = []
    for p in plans:
        w_used = w_bits = bn_bits = buf_bits = skip_bits = m20k = 0
        ish = p.in_shape
        if p.kind in ("conv", "firstconv"):
            w_used, w_bits, m20k = _cache(p.out_ch, p.k * p.k * ish.c)
        elif p.kind == "fc":
            w_used, w_bits, m20k = _cache(p.out_ch, ish.elements)
        elif p.kind == "join":
            skip_bits = skip_store_elements(plans, p) * 16
        if p.fused or p.kind == "join":
            bn_bits = p.out_ch * 64
            m20k += 2 * _ceil_div(p.out_ch, M20K_DEPTH)
        if p.kind in ("conv", "firstconv", "maxpool", "avgpool"):
            buf_bits = _window_fill(p) * ish.bits
        out.append(StageResources(name=p.name, kind=p.kind,
                                  weight_bits_used=w_used, weight_bits=w_bits,
                                  bn_bits=bn_bits, skip_bits=skip_bits, m20k=m20k,
                                  ff=buf_bits + skip_bits))
    return out


@dataclass(frozen=True)
class ResourceReport:
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

    @property
    def total_weight_bits_used(self) -> int:
        return sum(s.weight_bits_used for s in self.stages)

    def stage(self, name: str) -> StageResources:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


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


@dataclass(frozen=True)
class DeviceReport:
    device: int
    stages: tuple
    m20k: int
    ff: int
    bram_bits: int


@dataclass(frozen=True)
class PlacementReport:
    partition: Partition
    devices: tuple
    links: object  # engine.PartitionReport

    @property
    def feasible(self) -> bool:
        return self.links.all_ok


def _cut_bandwidth(plans, cfg):
    """Link load at every possible cut position, in Mbps.

    Cutting inside a residual block costs two 16-bit streams and is
    usually avoided.
    """
    bw = [0.0] * (len(plans) + 1)
    for _, _, mbps, spanned in edge_loads(plans, cfg.clock_mhz):
        for t in spanned:
            bw[t] += mbps
    return bw


def _greedy_ranges(res, budget, allowed):
    """Fewest contiguous segments that fit the budget, cutting only at
    allowed positions. Grab-longest is optimal here because any prefix
    of a feasible segment that ends at an allowed position is feasible."""
    n = len(res)
    ranges = []
    start = 0
    while start < n:
        cur_m = cur_f = 0
        best = None
        j = start
        while j < n:
            cur_m += res[j].m20k
            cur_f += res[j].ff
            if not budget.fits(cur_m, cur_f):
                break
            if j + 1 == n or allowed[j + 1]:
                best = j
            j += 1
        if best is None:
            return None
        ranges.append((start, best))
        start = best + 1
    return ranges


def _balanced_ranges(res, k, budget, allowed):
    """Re-cut into exactly k segments minimizing the largest bram load."""
    n = len(res)
    pm = [0] * (n + 1)
    pf = [0] * (n + 1)
    pb = [0] * (n + 1)
    for i, r in enumerate(res):
        pm[i + 1] = pm[i] + r.m20k
        pf[i + 1] = pf[i] + r.ff
        pb[i + 1] = pb[i] + r.bram_bits

    def seg_ok(a, b):  # plans a..b-1
        return budget.fits(pm[b] - pm[a], pf[b] - pf[a])

    inf = float("inf")
    dp = [[inf] * (n + 1) for _ in range(k + 1)]
    cut = [[-1] * (n + 1) for _ in range(k + 1)]
    dp[0][0] = 0
    for j in range(1, k + 1):
        for i in range(1, n + 1):
            for t in range(j - 1, i):
                if t and not allowed[t]:
                    continue
                if dp[j - 1][t] == inf or not seg_ok(t, i):
                    continue
                cand = max(dp[j - 1][t], pb[i] - pb[t])
                if cand < dp[j][i]:
                    dp[j][i] = cand
                    cut[j][i] = t
    if dp[k][n] == inf:
        return None
    bounds = [n]
    i = n
    for j in range(k, 0, -1):
        i = cut[j][i]
        bounds.append(i)
    bounds.reverse()
    return [(bounds[j], bounds[j + 1] - 1) for j in range(k)]


def partition_network(net, budget: DeviceBudget = STRATIX_V_5SGSD8,
                      max_devices: int = 8, cfg: ModelConfig = None) -> PlacementReport:
    cfg = cfg or ModelConfig()
    plans = expand_layers(net)
    res = stage_resources(plans)
    for r in res:
        if not budget.fits(r.m20k, r.ff):
            raise PartitionError("stage %s alone exceeds the %s budget"
                                 % (r.name, budget.name))
    capacity = cfg.link_gbps * 1000.0
    allowed = [bw <= capacity for bw in _cut_bandwidth(plans, cfg)]
    ranges = _greedy_ranges(res, budget, allowed)
    if ranges is None:
        # no bandwidth-clean placement; fall back and let the link
        # report say which cut is over
        allowed = [True] * (len(plans) + 1)
        ranges = _greedy_ranges(res, budget, allowed)
    if len(ranges) > max_devices:
        raise PartitionError("network needs %d devices, limit is %d"
                             % (len(ranges), max_devices))
    balanced = _balanced_ranges(res, len(ranges), budget, allowed)
    if balanced is not None:
        ranges = balanced
    partition = Partition(ranges=tuple(ranges))
    links = simulate_partition(net, partition, cfg)
    devices = []
    for dev, (a, b) in enumerate(partition.ranges):
        devices.append(DeviceReport(
            device=dev,
            stages=tuple(plans[i].name for i in range(a, b + 1)),
            m20k=sum(res[i].m20k for i in range(a, b + 1)),
            ff=sum(res[i].ff for i in range(a, b + 1)),
            bram_bits=sum(res[i].bram_bits for i in range(a, b + 1))))
    return PlacementReport(partition=partition, devices=tuple(devices), links=links)
