from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_net
from qnnstream.engine import ModelConfig, Partition, estimate_cycles, simulate_partition
from qnnstream.errors import PartitionError
from qnnstream.netdesc import BUILTIN_BUILDERS, expand_layers, parse_netdesc
from qnnstream.resources import (
    CACHE_DEPTH_GRANULE,
    DeviceBudget,
    M20K_BITS,
    STRATIX_V_5SGSD8,
    estimate_resources,
    partition_network,
    stage_resources,
)


def _conv_net(o, k=3, c=3):
    return parse_netdesc("input 16 16 %d 8\nconv k=%d s=1 p=1 o=%d d=1.0 "
                         "act=2\n" % (c, k, o), name="c%d" % o)


# ---------------------------------------------------------------------------
# weight cache granularity

def test_weight_cache_granule_waste_frozen():
    # 384 output channels against a 512-deep granule wastes exactly a
    # quarter of the allocated cache
    rep = estimate_resources(_conv_net(384))
    st = rep.stage("conv1")
    assert st.weight_bits_used == 384 * 9 * 3
    assert st.weight_bits == 512 * 9 * 3
    assert st.waste == 0.25


def test_weight_cache_no_waste_at_granule():
    st = estimate_resources(_conv_net(512)).stage("conv1")
    assert st.waste == 0.0
    st = estimate_resources(_conv_net(1024)).stage("conv1")
    assert st.weight_bits == st.weight_bits_used
    assert CACHE_DEPTH_GRANULE == 512


def test_m20k_block_count():
    # 100 rows of 72 bits: one 512-row granule, two 40-bit block widths,
    # plus two blocks of batchnorm working memory
    st = estimate_resources(_conv_net(100, k=3, c=8)).stage("conv1")
    assert st.m20k == 1 * 2 + 2


def test_bn_cache_bits_frozen():
    # 64 channels x 4 parameters x 16 bits
    st = estimate_resources(_conv_net(64)).stage("conv1")
    assert st.bn_bits == 4096


def test_bram_bits_sum_weights_and_bn():
    rep = estimate_resources(_conv_net(64))
    st = rep.stage("conv1")
    assert st.bram_bits == st.weight_bits + st.bn_bits
    # block allocation must cover the bits it claims to store
    assert st.m20k * M20K_BITS >= st.weight_bits
    assert rep.total_bram_bits == sum(s.bram_bits for s in rep.stages)


def test_resources_grow_with_channels():
    small = estimate_resources(_conv_net(32)).total_bram_bits
    big = estimate_resources(_conv_net(512)).total_bram_bits
    assert big > small


def test_resnet_totals_frozen():
    rep = estimate_resources(BUILTIN_BUILDERS["resnet18"]())
    assert rep.total_m20k == 835
    assert rep.total_ff == 1154824
    # same order of magnitude as a 30854 Kbit block memory budget
    ratio = rep.total_bram_bits / (30854 * 1024)
    assert 0.1 <= ratio <= 10.0


def test_join_charges_skip_store():
    net = parse_netdesc("input 12 12 3 2\nconv k=3 s=1 p=1 o=4 d=1.0 act=2\n"
                        "resblock o=4 s=1 d=1.0 act=2\n")
    rep = estimate_resources(net)
    st = rep.stage("block1_join")
    # a tee-fed stride-1 block's fork runs (W + 2) pixels ahead of the
    # join, 16 bits per element
    assert st.skip_bits == 4 * (12 + 2) * 16
    assert st.ff >= st.skip_bits


def test_reports_look_stages_up_by_name():
    # the cycle and the resource report share one lookup: every stage by
    # its name, a KeyError for an unknown one
    net = BUILTIN_BUILDERS["resnet18"]()
    names = [p.name for p in expand_layers(net)]
    for report in (estimate_cycles(net), estimate_resources(net)):
        assert [report.stage(n) for n in names] == list(report.stages)
        with pytest.raises(KeyError, match="no_such_stage"):
            report.stage("no_such_stage")


# ---------------------------------------------------------------------------
# device placement

def test_budget_fits():
    b = DeviceBudget("toy", m20k=10, ff=1000)
    assert b.fits(10, 1000)
    assert not b.fits(11, 1000)
    assert not b.fits(10, 1001)


def test_stratix_constants():
    assert STRATIX_V_5SGSD8.m20k == 2567
    assert STRATIX_V_5SGSD8.ff == 1050000


def test_resnet_placement_two_devices():
    pl = partition_network(BUILTIN_BUILDERS["resnet18"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig())
    assert len(pl.devices) == 2
    assert pl.feasible
    # the cut lands on a block boundary: one activation stream plus one
    # skip stream, comfortably under a 2 Gbps link
    assert len(pl.links) == 1
    assert pl.links[0].required_mbps == 1890.0
    for dev in pl.devices:
        assert dev.m20k <= STRATIX_V_5SGSD8.m20k
        assert dev.ff <= STRATIX_V_5SGSD8.ff


def test_alexnet_placement():
    pl = partition_network(BUILTIN_BUILDERS["alexnet"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig())
    assert len(pl.devices) == 2
    assert pl.feasible
    assert pl.links[0].required_mbps == 210.0


def test_vgg_fits_one_device():
    pl = partition_network(BUILTIN_BUILDERS["vgg"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig())
    assert len(pl.devices) == 1
    assert pl.feasible
    assert pl.links == ()


def test_placement_respects_max_devices():
    with pytest.raises(PartitionError, match="devices"):
        partition_network(BUILTIN_BUILDERS["alexnet"](), STRATIX_V_5SGSD8,
                          max_devices=1, cfg=ModelConfig())


def test_oversized_stage_rejected():
    tiny = DeviceBudget("tiny", m20k=1, ff=64)
    with pytest.raises(PartitionError, match="alone exceeds"):
        partition_network(_conv_net(64), tiny, cfg=ModelConfig())


def test_infeasible_link_budget_reported_not_raised():
    # when no cut fits the link budget the placement still comes back,
    # flagged infeasible, so the caller can see which link is over
    pl = partition_network(BUILTIN_BUILDERS["alexnet"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig(link_gbps=0.001))
    assert not pl.feasible
    assert any(not l.ok for l in pl.links)


def test_builtin_devices_fit_m20k_budget():
    for name in ("resnet18", "alexnet", "vgg"):
        pl = partition_network(BUILTIN_BUILDERS[name](), STRATIX_V_5SGSD8,
                               cfg=ModelConfig())
        spread = [d.bram_bits for d in pl.devices]
        assert max(spread) <= STRATIX_V_5SGSD8.m20k * M20K_BITS


def _fewest_then_balanced(res, budget, cuts):
    """(fewest devices, smallest largest bram load at that count) over
    every split at a subset of cuts whose segments fit the budget, or
    None if no subset gives one, by enumeration."""
    n = len(res)
    for k in range(1, len(cuts) + 2):
        loads = []
        for chosen in combinations(cuts, k - 1):
            bounds = (0,) + chosen + (n,)
            segs = [res[a:b] for a, b in zip(bounds, bounds[1:])]
            if all(budget.fits(sum(r.m20k for r in seg), sum(r.ff for r in seg))
                   for seg in segs):
                loads.append(max(sum(r.bram_bits for r in seg) for seg in segs))
        if loads:
            return k, min(loads)
    return None


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_partition_is_fewest_devices_then_balanced(seed):
    # against every set of cuts whose links fit (every cut if no such
    # set places the net): the fewest devices, the smallest largest
    # bram load at that count, and PartitionError exactly when that
    # count exceeds max_devices
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    plans = expand_layers(net)
    res = stage_resources(plans)
    n = len(plans)
    lo_m, lo_f = max(r.m20k for r in res), max(r.ff for r in res)
    budget = DeviceBudget("rand", m20k=int(rng.integers(lo_m, sum(r.m20k for r in res) + 1)),
                          ff=int(rng.integers(lo_f, sum(r.ff for r in res) + 1)))
    cfg = ModelConfig(clock_mhz=float(rng.choice([50.0, 105.0, 250.0])),
                      link_gbps=float(np.exp(rng.uniform(np.log(0.001), np.log(2.0)))))
    max_devices = int(rng.integers(1, 7))
    # a cut is clean when its link alone fits, whatever the other cuts
    clean = [t for t in range(1, n) if simulate_partition(
        net, Partition(((0, t - 1), (t, n - 1))), cfg)[0].ok]
    best = _fewest_then_balanced(res, budget, clean)
    feasible = best is not None
    if not feasible:
        best = _fewest_then_balanced(res, budget, list(range(1, n)))
    devices, load = best
    if devices > max_devices:
        with pytest.raises(PartitionError, match="needs %d devices" % devices):
            partition_network(net, budget, max_devices=max_devices, cfg=cfg)
        return
    pl = partition_network(net, budget, max_devices=max_devices, cfg=cfg)
    assert len(pl.devices) == devices
    assert max(d.bram_bits for d in pl.devices) == load
    assert pl.feasible == feasible
