"""Shared test helpers: a random network generator and stage harness.

The generator emits only well-formed descriptions whose worst-case
accumulators stay within the 16-bit stream budget: an unfused conv can
only be terminal (anything downstream of its wide accumulators would
overflow), 8-bit inputs always meet a fused first conv, and residual
runs are capped at four blocks so chained skip sums stay in range.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from qnnstream.engine import Fifo
from qnnstream.kernels import ResidualJoinStage, TeeWidenStage
from qnnstream.netdesc import parse_netdesc
from reference import BnChannel


def random_net_text(rng, force_residual=None, max_act_bits=3):
    """A random description; every activation is 1 to max_act_bits bits
    wide. The default of 3 keeps the draws, and so every seeded corpus,
    as they have always been. Up to 8 makes layer folds of 255 levels,
    and the 16-bit budget above no longer holds for the worst case."""
    h = int(rng.integers(5, 17))
    w = int(rng.integers(5, 17))
    c = int(rng.integers(1, 9))
    bits = int(rng.choice([1, 2, 3, 8]))
    lines = ["input %d %d %d %d" % (h, w, c, bits)]
    depth = int(rng.integers(1, 9))
    kind = "u8" if bits == 8 else "code"
    run_len = 0
    wide = False
    want_res = force_residual if force_residual is not None \
        else bool(rng.random() < 0.5)

    def d_val():
        return float(rng.choice([0.5, 1.0, 2.0, 4.0]))

    def fits(k, p):
        return h + 2 * p >= k and w + 2 * p >= k

    def spatial(k, s, p):
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    while len(lines) - 1 < depth:
        if kind == "u8":
            choices = ["conv"]
        elif kind == "accum":
            if wide:
                break  # a 16-bit conv output stream must end the net
            choices = ["maxpool", "avgpool", "fc"]
        else:
            choices = ["conv", "maxpool", "avgpool", "fc"]
            if want_res and run_len < 4 and c <= 8:
                choices += ["resblock", "resblock"]
        op = rng.choice(choices)
        if op != "resblock":
            run_len = 0
        if op == "conv":
            while True:
                k = int(rng.choice([1, 3, 5, 7, 11]))
                s = int(rng.choice([1, 2, 4]))
                p = int(rng.choice([0, 1, 3]))
                if fits(k, p):
                    break
            o = int(rng.integers(1, 9))
            last = len(lines) - 1 == depth - 1
            unfused = kind == "code" and last and rng.random() < 0.25
            if unfused:
                lines.append("conv k=%d s=%d p=%d o=%d act=none" % (k, s, p, o))
                kind = "accum"
                wide = True
            else:
                n = int(rng.integers(1, max_act_bits + 1))
                lines.append("conv k=%d s=%d p=%d o=%d d=%r act=%d"
                             % (k, s, p, o, d_val(), n))
                kind = "code"
            h, w, c = *spatial(k, s, p), o
        elif op in ("maxpool", "avgpool"):
            while True:
                k = int(rng.choice([2, 3]))
                s = int(rng.choice([1, 2]))
                p = int(rng.choice([0, 1]))
                if fits(k, p) and (h + 2 * p - k) // s + 1 >= 1:
                    break
            lines.append("%s k=%d s=%d p=%d" % (op, k, s, p))
            h, w = spatial(k, s, p)
            if op == "avgpool":
                kind = "accum"
        elif op == "resblock":
            run_len += 1
            s = int(rng.choice([1, 1, 2]))
            o = int(rng.integers(c, 9))
            proj = " proj" if (s != 1 or o != c) else ""
            n = int(rng.integers(1, max_act_bits + 1))
            lines.append("resblock o=%d s=%d d=%r act=%d%s"
                         % (o, s, d_val(), n, proj))
            h, w = (h - 1) // s + 1, (w - 1) // s + 1
            c = o
            kind = "code"
        elif op == "fc":
            o = int(rng.integers(1, 17))
            if rng.random() < 0.5:
                lines.append("fc o=%d d=%r act=%d"
                             % (o, d_val(), int(rng.integers(1, max_act_bits + 1))))
                kind = "code"
                h = w = 1
                c = o
                if rng.random() < 0.7:
                    break  # usually the head ends the net
            else:
                lines.append("fc o=%d" % o)
                kind = "accum"
                break
    return "\n".join(lines) + "\n"


def random_net(rng, name="rand", force_residual=None, max_act_bits=3):
    return parse_netdesc(random_net_text(rng, force_residual, max_act_bits), name=name)


def residual_overflow_chain():
    """A residual chain whose first out-of-range value is a join's sum.

    20 blocks of 64 channels, every weight +1 and every batchnorm gamma
    1, mean 0, inv_std 1, bias 100: on an image of 3s every code is 3,
    so each block's conv a adds 9 * 64 * 3 = 1728 to the skip chain.
    Returns (description text, save_params arrays, image).
    """
    w = np.ones((3, 3, 64, 64))
    bn = np.array([[1.0] * 64, [0.0] * 64, [1.0] * 64, [100.0] * 64])
    block = {"weights_a": w, "bn_join": bn, "weights_b": w, "bn_b": bn}
    text = "input 4 4 64 2\n" + "resblock o=64 s=1 d=1.0\n" * 20
    return text, [None] + [block] * 20, np.full((4, 4, 64), 3, dtype=np.uint8)


def wide_params_strategy():
    """One channel's batchnorm parameters: nonzero gamma and inv_std
    down to subnormals, of either sign for gamma, so that a tiny
    gamma * inv_std gives huge integer coefficients and thresholds past
    the clamp."""
    small = st.floats(min_value=-1e-30, max_value=1e-30, allow_subnormal=True)
    gamma = st.one_of(st.floats(min_value=-8.0, max_value=8.0), small)
    inv_std = st.one_of(st.floats(min_value=1e-3, max_value=8.0),
                        st.floats(min_value=0.0, max_value=1e-30, exclude_min=True,
                                  allow_subnormal=True))
    f = st.floats(min_value=-40000.0, max_value=40000.0)
    return st.builds(BnChannel, gamma=gamma.filter(bool), mean=f,
                     inv_std=inv_std, bias=f)


_FLOAT32_TINY = float(np.finfo(np.float32).smallest_subnormal)


def as_float32_channel(p):
    """p as a parameter blob holds it: every field rounded to float32,
    and a gamma or inv_std that rounds to zero raised to the least
    float32 subnormal of its sign, so gamma * inv_std stays nonzero."""
    def scale(v):
        return float(np.float32(v)) or np.copysign(_FLOAT32_TINY, v)

    return BnChannel(gamma=scale(p.gamma), mean=float(np.float32(p.mean)),
                     inv_std=scale(p.inv_std), bias=float(np.float32(p.bias)))


def random_image(rng, net):
    ish = net.input_shape
    return rng.integers(0, 1 << ish.bits, size=(ish.h, ish.w, ish.c),
                        dtype=np.uint8)


def drive_stage(stage, in_data, skip_data=None, capacity=None):
    """Run one stage to completion.

    Every FIFO gets the capacity, or an ample one without it, and each
    input FIFO is topped up to its capacity before every step. Without a
    capacity the whole input is queued before the first step. With one,
    input is fed step by step and outputs are drained by what their
    FIFOs show between steps, so the stage runs its partial-progress
    paths. Returns (main output, skip output or None) as int64 arrays.
    """
    cap = capacity or max(len(in_data), 1) * 8 + 64
    feeds = [("in_fifo", np.asarray(in_data, dtype=np.int32))]
    if skip_data is not None:
        feeds.append(("skip_fifo", np.asarray(skip_data, dtype=np.int32)))
    outputs = {"out_fifo": []}
    if isinstance(stage, (ResidualJoinStage, TeeWidenStage)):
        outputs["skip_out_fifo"] = []
    for attr in [a for a, _ in feeds] + list(outputs):
        setattr(stage, attr, Fifo(cap, attr))
    fed = [0] * len(feeds)
    while not stage.finished or any(getattr(stage, a).held for a in outputs):
        moved = False
        for i, (attr, data) in enumerate(feeds):
            fifo = getattr(stage, attr)
            took = fifo.push(data[fed[i]:fed[i] + cap - fifo.held])
            fed[i] += took
            moved = moved or took > 0
        moved = stage.step() or moved
        for attr, got in outputs.items():
            fifo = getattr(stage, attr)
            if fifo.occ:
                got.append(fifo.pop(fifo.occ))
                moved = True
        if not moved:
            raise AssertionError("stage %s made no progress" % stage.name)
    joined = {a: np.concatenate(got or [np.empty(0)]).astype(np.int64)
              for a, got in outputs.items()}
    return joined["out_fifo"], joined.get("skip_out_fifo")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
