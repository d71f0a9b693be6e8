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
kind of skip producer) whose stalled_on_skip is nonzero. Last come the
total Fifo.pop and LineBuffer.push calls, which measure how much FIFO
and line-buffer traffic a step batches, not the schedule.

It exits 1 when the hash, step-call or mismatch line differs from the
one pinned in PINNED; the stalling pairs are listed but not checked.
"""

import hashlib
import sys

import numpy as np

from conftest import random_image, random_net
from qnnstream import QnnError, dense_infer, engine, kernels
from qnnstream.engine import build_graph, run
from qnnstream.kernels import ResidualJoinStage
from qnnstream.netdesc import load_params, random_params

SEEDS = range(400)
CAPACITIES = list(range(1, 13)) + [None]
NAMED = [(671, c) for c in range(6, 13)] + [(1114, 8), (1114, 9), (854, 8),
                                            (854, 9), (72638, 5), (72638, 9)]
PINNED = (
    "sha256 ad740f50e93e74f6f85cf8cb003e151f19a1662bdc71743b561fb5e90d67fd21",
    "Stage.step calls 2133336",
    "dense_infer mismatches 0",
)


def _count_calls(owner, attr, counts):
    """Replace the method owner.attr with one that counts its calls in
    counts[attr]."""
    method = getattr(owner, attr)
    counts[attr] = 0

    def counted(self, *args):
        counts[attr] += 1
        return method(self, *args)

    setattr(owner, attr, counted)


def main():
    calls = {}
    _count_calls(kernels.Stage, "step", calls)
    _count_calls(engine.Fifo, "pop", calls)
    _count_calls(kernels.LineBuffer, "push", calls)
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
    lines = ["runs %d" % len(pairs),
             "sha256 %s" % digest.hexdigest(),
             "Stage.step calls %d" % calls["step"],
             "dense_infer mismatches %d" % mismatches,
             "stalling pairs %d" % len({(s, c) for s, c, *_ in stalls})]
    lines += ["  seed %d capacity %s %s skip from %s"
              % (seed, "default" if capacity is None else capacity, join, kind)
              for seed, capacity, join, kind in stalls]
    lines += ["Fifo.pop calls %d" % calls["pop"],
              "LineBuffer.push calls %d" % calls["push"]]
    print("\n".join(lines))
    changed = [line for line in PINNED if line not in lines]
    for line in changed:
        print("changed: want %r" % line, file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
