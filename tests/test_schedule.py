"""The step schedule itself, pinned.

Other tests hold the streams and the cycle reports, which any schedule
that respects FIFO order gives alike. This one holds the schedule: the
order in which stages step, what each step returns and how full every
FIFO is after it. A change that batches FIFO traffic differently inside
a step must leave this digest as it is.
"""

import hashlib

import numpy as np

from conftest import random_image, random_net
from qnnstream.engine import build_graph, run
from qnnstream.errors import QnnError
from qnnstream.kernels import ResidualJoinStage
from qnnstream.netdesc import expand_layers, load_params, random_params

CAPACITIES = (1, 2, 3, 5, 9, None)
SCHEDULE_SHA256 = "a4d97e7489476dcf802957fb6a834b6af97bd973ed7f0308404c9ef70bd6078b"


def _record_steps(graph, log):
    """Wrap each stage's step to log (stage index, return value, held
    of every FIFO) after the call."""
    fifos = graph.fifos
    for i, stage in enumerate(graph.stages):
        def step(i=i, inner=stage.step):
            moved = inner()
            log.append((i, moved, tuple(f.held for f in fifos)))
            return moved
        stage.step = step


def _nets(count):
    """The first count nets of at least three stages, from seeds 0 on,
    that have a residual join (drawn as residual) and as many that have
    none (drawn as plain)."""
    for residual in (True, False):
        found, seed = 0, 0
        while found < count:
            rng = np.random.default_rng(seed)
            net = random_net(rng, force_residual=residual)
            kinds = [p.kind for p in expand_layers(net)]
            if len(kinds) >= 3 and ("join" in kinds) == residual:
                found += 1
                params = load_params(random_params(net, rng), net)
                yield seed, net, params, random_image(rng, net)
            seed += 1


def test_step_schedule_pinned():
    digest = hashlib.sha256()
    for seed, net, params, img in _nets(15):
        for capacity in CAPACITIES:
            graph = build_graph(net, params, fifo_capacity=capacity)
            log = []
            _record_steps(graph, log)
            try:
                run(graph, img)
            except QnnError as err:
                log.append(type(err).__name__)
            stalls = [s.stalled_on_skip for s in graph.stages
                      if isinstance(s, ResidualJoinStage)]
            digest.update(repr((seed, capacity, log, stalls)).encode())
    assert digest.hexdigest() == SCHEDULE_SHA256
