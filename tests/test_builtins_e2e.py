"""Whole-model checks on the three builtin networks.

Each builtin gets one engine run and one dense reference pass with the
same random parameters, so the file costs a few seconds. The fixture is
module scoped and parametrized, letting the checks per model share that
single run.
"""

import numpy as np
import pytest

from reference import fold_batchnorm_fraction
from qnnstream.engine import ModelConfig, build_graph, estimate_cycles, run
from qnnstream.kernels import ResidualJoinStage
from qnnstream.netdesc import BUILTIN_BUILDERS, load_params, random_params
from qnnstream.oracle import dense_infer
from qnnstream.resources import estimate_resources

SEEDS = {"resnet18": 2024, "alexnet": 5, "vgg": 7}
# elements of each join's skip store, in stream order
SKIP_STORES = {"resnet18": [3712, 7360, 3840, 7552, 4096, 7936, 4608, 8704],
               "alexnet": [], "vgg": []}


@pytest.fixture(scope="module", params=sorted(SEEDS))
def builtin_case(request):
    name = request.param
    net = BUILTIN_BUILDERS[name]()
    rng = np.random.default_rng(SEEDS[name])
    params = load_params(random_params(net, rng), net)
    ish = net.input_shape
    img = rng.integers(0, 1 << ish.bits, size=(ish.h, ish.w, ish.c),
                       dtype=np.uint8)
    graph = build_graph(net, params)
    result = run(graph, img, ModelConfig())
    return name, net, params, img, graph, result


def test_engine_matches_reference(builtin_case):
    name, net, params, img, graph, result = builtin_case
    reference = dense_infer(net, params, img)
    assert result.output.shape == reference.shape
    assert np.array_equal(result.output, reference)


def test_report_matches_estimate(builtin_case):
    name, net, params, img, graph, result = builtin_case
    assert estimate_cycles(net, ModelConfig()) == result.report


def test_joins_never_starved(builtin_case):
    name, net, params, img, graph, result = builtin_case
    joins = [s for s in graph.stages if isinstance(s, ResidualJoinStage)]
    assert [j.skip_fifo.capacity for j in joins] == SKIP_STORES[name]
    assert all(j.stalled_on_skip == 0 for j in joins)
    # the simulated skip FIFO is the store the memory estimate charges
    charged = estimate_resources(net)
    for j in joins:
        assert j.skip_fifo.capacity * 16 == charged.stage(j.name).skip_bits
    for f in graph.fifos:
        assert f.max_occ <= f.capacity


def test_thresholds_equal_fraction_fold(builtin_case):
    # every layer's ThresholdSet load_params folds equals the rational
    # reference, folded one channel at a time, in every channel
    name, net, params, img, graph, result = builtin_case
    folded = 0
    for layer, lp in zip(net.layers, params):
        pairs = [(cp.bn, cp.thresholds) for cp in lp.convs.values() if cp.bn]
        if lp.join_bn:
            pairs.append((lp.join_bn, lp.join_thresholds))
        for bn, thresholds in pairs:
            ref = fold_batchnorm_fraction(bn, lp.d, layer.act_bits)
            assert thresholds.sign.tolist() == ref.sign.tolist(), layer
            assert thresholds.values.tolist() == ref.values.tolist(), layer
            folded += len(bn.gamma)
    assert folded == {"resnet18": 3904, "alexnet": 9568, "vgg": 1920}[name]


@pytest.mark.parametrize("builtin_case", ["resnet18"], indirect=True)
def test_gather_hook_counts_window_fires(builtin_case):
    # a tracer times each line buffer by replacing its gather with a
    # one-argument wrapper, as an instance attribute; the engine must read
    # every batch of windows through that attribute and nothing else
    name, net, params, img, graph, result = builtin_case
    graph = build_graph(net, params)
    fires = []
    for stage in graph.stages:
        lbuf = getattr(stage, "lbuf", None)
        if lbuf is not None:
            def call(arg, gather=lbuf.gather):
                fires.append(1)
                return gather(arg)
            lbuf.gather = call
    hooked = run(graph, img, ModelConfig())
    assert len(fires) == 590
    assert np.array_equal(hooked.output, dense_infer(net, params, img))
