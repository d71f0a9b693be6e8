"""Whole-pipeline fuzz: every description ends as a QnnError or a result.

Run from the repository root (about two minutes on one core):

    PYTHONPATH=src python tests/fuzz_pipeline.py

It draws 20,000 descriptions, derandomized so every run draws the same
ones: half from test_netdesc's malformed-text strategy, half generated
nets from conftest.random_net_text. Each one that parses goes through
random_params, load_params, run (checked against dense_infer and
estimate_cycles), partition_network and the emit_netdesc round trip.
Any exception other than a QnnError fails the run, except a MemoryError,
which the CLI reports as exit 1. The address space is capped at 4 GiB
so a description that asks for more fails as a MemoryError.
"""

import resource

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import random_image, random_net_text
from test_netdesc import _TEXT
from qnnstream import (
    QnnError,
    build_graph,
    dense_infer,
    emit_netdesc,
    estimate_cycles,
    load_params,
    parse_netdesc,
    partition_network,
    random_params,
    run,
)

DESCRIPTIONS = 20_000
_GENERATED = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_net_text(np.random.default_rng(seed)))


def _pipeline(text):
    net = parse_netdesc(text)
    rng = np.random.default_rng(0)
    params = load_params(random_params(net, rng), net)
    image = random_image(rng, net)
    result = run(build_graph(net, params), image)
    assert np.array_equal(result.output, dense_infer(net, params, image))
    assert result.report == estimate_cycles(net)
    partition_network(net)
    assert emit_netdesc(parse_netdesc(emit_netdesc(net))) == emit_netdesc(net)


@settings(max_examples=DESCRIPTIONS, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(text=st.one_of(_TEXT, _GENERATED))
def fuzz(text):
    try:
        _pipeline(text)
    except (QnnError, MemoryError):
        pass


if __name__ == "__main__":
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    fuzz()
    print("%d descriptions, no exception but QnnError or MemoryError" % DESCRIPTIONS)
