"""Stall scan: which residual joins wait on their skip FIFO, and where.

Run from the repository root (about half a minute on one core):

    PYTHONPATH=src python tests/stall_scan.py

It runs random_net(default_rng(seed), force_residual=True) with the
parameters and image test_fifo_capacity_property draws after it, for
seeds 0-399 at FIFO capacities 1-12 and the default, and then the named
(seed, capacity) pairs below, which stalled in earlier scans. It prints
the run count, a sha256 over every output and repr(CycleReport) in run
order (schedule independent, so any two trees that compute the same
streams print the same one), the total Stage.step calls, the count of
runs whose output or error disagrees with dense_infer (0 on a correct
tree; the oracle runs once per seed), and each (seed, capacity, join,
kind of skip producer) whose stalled_on_skip is nonzero.
"""

import hashlib

import numpy as np

from conftest import random_image, random_net
from qnnstream import QnnError, dense_infer, kernels
from qnnstream.engine import build_graph, run
from qnnstream.kernels import ResidualJoinStage
from qnnstream.netdesc import load_params, random_params

SEEDS = range(400)
CAPACITIES = list(range(1, 13)) + [None]
NAMED = [(671, c) for c in range(6, 13)] + [(1114, 8), (1114, 9), (854, 8),
                                            (854, 9), (72638, 5), (72638, 9)]


def main():
    steps = [0]
    step = kernels.Stage.step

    def counted(self):
        steps[0] += 1
        return step(self)

    kernels.Stage.step = counted
    digest = hashlib.sha256()
    stalls = []
    mismatches = 0
    oracle = {}  # seed -> dense_infer's output, or its QnnError's type
    pairs = [(s, c) for s in SEEDS for c in CAPACITIES] + NAMED
    for seed, capacity in pairs:
        rng = np.random.default_rng(seed)
        net = random_net(rng, force_residual=True)
        params = load_params(random_params(net, rng), net)
        img = random_image(rng, net)
        if seed not in oracle:
            try:
                oracle[seed] = dense_infer(net, params, img)
            except QnnError as err:
                oracle[seed] = type(err)
        want = oracle[seed]
        graph = build_graph(net, params, fifo_capacity=capacity)
        try:
            result = run(graph, img)
        except QnnError as err:
            mismatches += want is not type(err)
            digest.update(repr(err).encode())
            continue
        mismatches += isinstance(want, type) or not np.array_equal(result.output, want)
        digest.update(result.output.tobytes())
        digest.update(repr(result.report).encode())
        for plan, stage in zip(graph.plans, graph.stages):
            if isinstance(stage, ResidualJoinStage) and stage.stalled_on_skip:
                stalls.append((seed, capacity, stage.name,
                               graph.plans[plan.skip_src].kind))
    print("runs %d" % len(pairs))
    print("sha256 %s" % digest.hexdigest())
    print("Stage.step calls %d" % steps[0])
    print("dense_infer mismatches %d" % mismatches)
    print("stalling pairs %d" % len({(s, c) for s, c, *_ in stalls}))
    for seed, capacity, join, kind in stalls:
        print("  seed %d capacity %s %s skip from %s"
              % (seed, "default" if capacity is None else capacity, join, kind))


if __name__ == "__main__":
    main()
