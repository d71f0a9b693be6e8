import pytest

from qnnstream.engine import ModelConfig
from qnnstream.errors import PartitionError
from qnnstream.netdesc import BUILTIN_BUILDERS, parse_netdesc
from qnnstream.resources import (
    CACHE_DEPTH_GRANULE,
    DeviceBudget,
    M20K_BITS,
    STRATIX_V_5SGSD8,
    estimate_resources,
    partition_network,
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
    assert rep.total_ff == 1472264
    # same order of magnitude as a 30854 Kbit block memory budget
    ratio = rep.total_bram_bits / (30854 * 1024)
    assert 0.1 <= ratio <= 10.0


def test_join_charges_skip_store():
    net = parse_netdesc("input 12 12 3 2\nconv k=3 s=1 p=1 o=4 d=1.0 act=2\n"
                        "resblock o=4 s=1 d=1.0 act=2\n")
    rep = estimate_resources(net)
    st = rep.stage("block1_join")
    # skip store sized like the first conv's line buffer, 16 bits wide
    assert st.skip_bits == 4 * (14 * 2 + 3) * 16
    assert st.ff >= st.skip_bits


# ---------------------------------------------------------------------------
# device placement

def test_budget_fits():
    b = DeviceBudget("toy", m20k=10, ff=1000, alm=100)
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
    assert len(pl.links.links) == 1
    assert pl.links.links[0].required_mbps == 1890.0
    for dev in pl.devices:
        assert dev.m20k <= STRATIX_V_5SGSD8.m20k
        assert dev.ff <= STRATIX_V_5SGSD8.ff


def test_alexnet_placement():
    pl = partition_network(BUILTIN_BUILDERS["alexnet"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig())
    assert len(pl.devices) == 2
    assert pl.feasible
    assert pl.links.links[0].required_mbps == 210.0


def test_vgg_fits_one_device():
    pl = partition_network(BUILTIN_BUILDERS["vgg"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig())
    assert len(pl.devices) == 1
    assert pl.feasible
    assert pl.links.links == ()


def test_placement_respects_max_devices():
    with pytest.raises(PartitionError, match="devices"):
        partition_network(BUILTIN_BUILDERS["alexnet"](), STRATIX_V_5SGSD8,
                          max_devices=1, cfg=ModelConfig())


def test_oversized_stage_rejected():
    tiny = DeviceBudget("tiny", m20k=1, ff=64, alm=8)
    with pytest.raises(PartitionError, match="alone exceeds"):
        partition_network(_conv_net(64), tiny, cfg=ModelConfig())


def test_infeasible_link_budget_reported_not_raised():
    # when no cut fits the link budget the placement still comes back,
    # flagged infeasible, so the caller can see which link is over
    pl = partition_network(BUILTIN_BUILDERS["alexnet"](), STRATIX_V_5SGSD8,
                           cfg=ModelConfig(link_gbps=0.001))
    assert not pl.feasible
    assert any(not l.ok for l in pl.links.links)


def test_balance_does_not_exceed_greedy_device_count():
    for name in ("resnet18", "alexnet", "vgg"):
        pl = partition_network(BUILTIN_BUILDERS[name](), STRATIX_V_5SGSD8,
                               cfg=ModelConfig())
        spread = [d.bram_bits for d in pl.devices]
        assert max(spread) <= STRATIX_V_5SGSD8.m20k * M20K_BITS
