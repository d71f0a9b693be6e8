"""Seeded inputs for every workload, generated by the benchmark alone.

Nothing here calls qnnstream's random_params or imports the test suite,
so a change to either cannot change what the benchmark runs. The
program is used only to build the builtin descriptions, to read layer
shapes, and to serialize arrays with save_params, the blob format every
caller uses.

A workload's inputs are a list of items, one per network:
(description text or builtin name, parameter blob, images).
"""

import hashlib

import numpy as np

from qnnstream import netdesc

BUILTIN_IMAGES = 8  # frames cycle through this many distinct images
CORPUS_SEED = 20170801  # the corpus structure is fixed; --seed varies data
CORPUS_NETS = 120


def _bn(rng, o, fan_in, vmax, d, n):
    """Batchnorm arrays whose folded thresholds fall inside the range the
    accumulators actually reach, so output codes spread over all levels."""
    sigma = max(np.sqrt(fan_in) * vmax * 0.5, 1.0)
    gamma = rng.choice([-1.0, 1.0], size=o, p=[0.2, 0.8]) * rng.uniform(0.5, 2.0, o)
    mean = rng.normal(0.0, sigma * 0.5, o)
    inv_std = rng.uniform(0.5, 1.5, o) / sigma
    bias = rng.uniform(0.0, d * (1 << n) * 0.75, o)
    return np.stack([gamma, mean, inv_std, bias]).astype(np.float32)


def _weights(rng, shape):
    return rng.standard_normal(shape, dtype=np.float32)


def make_params(net, rng) -> bytes:
    """A parameter blob for net, one entry per layer, via save_params."""
    arrays = []
    for layer in net.layers:
        if layer.kind not in ("conv", "fc", "resblock"):
            arrays.append(None)
            continue
        cur = layer.in_shape
        # accumulator streams carry pooled code values in practice
        vmax = 7 if cur.kind == "accum" else (1 << cur.bits) - 1
        if layer.kind in ("conv", "fc"):
            if layer.kind == "conv":
                shape = (layer.k, layer.k, cur.c, layer.o)
            else:
                shape = (1, 1, cur.elements, layer.o)
            entry = {"weights": _weights(rng, shape)}
            if layer.fused:
                fan = shape[0] * shape[1] * shape[2]
                entry["bn"] = _bn(rng, layer.o, fan, vmax, layer.d, layer.act_bits)
            arrays.append(entry)
        else:
            shape_a = (3, 3, cur.c, layer.o)
            shape_b = (3, 3, layer.o, layer.o)
            n = layer.act_bits
            arrays.append({
                "weights_a": _weights(rng, shape_a),
                "bn_join": _bn(rng, layer.o, 9 * cur.c + 1, vmax, layer.d, n),
                "weights_b": _weights(rng, shape_b),
                "bn_b": _bn(rng, layer.o, 9 * layer.o, (1 << n) - 1, layer.d, n),
            })
    return netdesc.save_params(net, arrays)


def make_image(rng, net) -> np.ndarray:
    ish = net.input_shape
    return rng.integers(0, 1 << ish.bits, size=(ish.h, ish.w, ish.c), dtype=np.uint8)


def corpus_net_text(rng) -> str:
    """A small random description within the 16-bit accumulator budget.

    The rules: an unfused conv only ends the net (nothing downstream of
    its wide accumulators would stay in range), 8-bit inputs always meet
    a fused first conv, and residual runs stop at four blocks so chained
    skip sums stay in range.
    """
    h = int(rng.integers(5, 17))
    w = int(rng.integers(5, 17))
    c = int(rng.integers(1, 9))
    bits = int(rng.choice([1, 2, 3, 8]))
    lines = ["input %d %d %d %d" % (h, w, c, bits)]
    depth = int(rng.integers(1, 9))
    kind = "u8" if bits == 8 else "code"
    run_len = 0
    want_res = bool(rng.random() < 0.5)

    def d_val():
        return float(rng.choice([0.5, 1.0, 2.0, 4.0]))

    def spatial(k, s, p):
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    while len(lines) - 1 < depth:
        if kind == "u8":
            choices = ["conv"]
        elif kind == "wide":
            break
        elif kind == "accum":
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
                if h + 2 * p >= k and w + 2 * p >= k:
                    break
            o = int(rng.integers(1, 9))
            last = len(lines) == depth
            if kind == "code" and last and rng.random() < 0.25:
                lines.append("conv k=%d s=%d p=%d o=%d act=none" % (k, s, p, o))
                kind = "wide"
            else:
                lines.append("conv k=%d s=%d p=%d o=%d d=%r act=%d"
                             % (k, s, p, o, d_val(), int(rng.integers(1, 4))))
                kind = "code"
            h, w, c = *spatial(k, s, p), o
        elif op in ("maxpool", "avgpool"):
            while True:
                k = int(rng.choice([2, 3]))
                s = int(rng.choice([1, 2]))
                p = int(rng.choice([0, 1]))
                if h + 2 * p >= k and w + 2 * p >= k:
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
            lines.append("resblock o=%d s=%d d=%r act=%d%s"
                         % (o, s, d_val(), int(rng.integers(1, 4)), proj))
            h, w, c = (h - 1) // s + 1, (w - 1) // s + 1, o
            kind = "code"
        else:  # fc
            o = int(rng.integers(1, 17))
            if rng.random() < 0.5:
                lines.append("fc o=%d d=%r act=%d"
                             % (o, d_val(), int(rng.integers(1, 4))))
                kind = "code"
                h = w = 1
                c = o
                if rng.random() < 0.7:
                    break  # usually the head ends the net
            else:
                lines.append("fc o=%d" % o)
                break
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int):
    """The items a workload runs, all derived from seed (and, for the
    corpus structure, from CORPUS_SEED)."""
    rng = np.random.default_rng(seed)
    if workload in netdesc.BUILTIN_BUILDERS:
        net = netdesc.BUILTIN_BUILDERS[workload]()
        blob = make_params(net, rng)
        images = [make_image(rng, net) for _ in range(BUILTIN_IMAGES)]
        return [(workload, blob, images)]
    if workload == "corpus-fifo1":
        shape_rng = np.random.default_rng(CORPUS_SEED)
        items = []
        for i in range(CORPUS_NETS):
            text = corpus_net_text(shape_rng)
            net = netdesc.parse_netdesc(text, name="corpus%d" % i)
            items.append((text, make_params(net, rng), [make_image(rng, net)]))
        return items
    raise ValueError("unknown workload %r" % workload)


def fingerprints(items):
    """sha256 of the parameter blobs, the images and the net texts."""
    blobs, images, descs = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for spec, blob, imgs in items:
        if spec in netdesc.BUILTIN_BUILDERS:
            spec = netdesc.emit_netdesc(netdesc.BUILTIN_BUILDERS[spec]())
        descs.update(spec.encode())
        blobs.update(blob)
        for img in imgs:
            images.update(img.tobytes())
    return {"params": blobs.hexdigest(), "images": images.hexdigest(),
            "nets": descs.hexdigest()}
