"""Network description language, builtin models, and parameter loading.

The text format is line based, one directive per line:

    input H W C BITS
    conv k= s= p= o= d= [act=N|none]
    maxpool k= s= [p=]
    avgpool k= s= [p=]
    resblock o= s= d= [proj] [act=N]
    fc o= [d=] [act=N]

BITS selects the input element kind: 8 means raw unsigned pixels, smaller
values mean activation codes of that width. act=none turns off the fused
batchnorm/activation of a conv, which then emits raw accumulators (legal
only where an accumulator consumer follows). fc without d= does the same,
which is how a classifier head exposes its final accumulators. Pools take
an optional p= since strided pooling may need edge padding to hit the
intended output size. A resblock whose shape changes (stride or channel
growth) must say proj, and only then.

Parameters travel in a flat little-endian blob: magic QNNP, version,
layer count, one f32 quantization range d per layer (0 where the layer
has none), then per layer the raw f32 weights in cache order (output
channel outer, then row, column, channel fastest) followed by the
gamma, mean, inv_std, bias arrays. Weights are binarized on load.
"""

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NetdescError, ParamsError, ShapeError
from .kernels import StreamShape
from .quant import ACCUM_BITS, BnParams, WeightBlock, fold_batchnorm

DEFAULT_ACT_BITS = 2
PARAMS_MAGIC = b"QNNP"
PARAMS_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # input | conv | maxpool | avgpool | resblock | fc
    h: int = 0
    w: int = 0
    c: int = 0
    bits: int = 0
    k: int = 0
    s: int = 1
    p: int = 0
    o: int = 0
    d: float = 0.0
    act_bits: int = DEFAULT_ACT_BITS
    fused: bool = True
    proj: bool = False
    in_shape: StreamShape = None
    out_shape: StreamShape = None
    src_line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    layers: tuple

    @property
    def input_shape(self) -> StreamShape:
        return self.layers[0].out_shape

    @property
    def output_shape(self) -> StreamShape:
        return self.layers[-1].out_shape


def _kv_tokens(tokens, line_no, allowed, flags=()):
    out = {}
    for tok in tokens:
        if tok in flags:
            out[tok] = True
            continue
        if "=" not in tok:
            raise NetdescError("expected key=value, got %r" % tok, line_no)
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise NetdescError("unknown key %r" % key, line_no)
        if key in out:
            raise NetdescError("duplicate key %r" % key, line_no)
        out[key] = val
    return out


def _int_field(kv, key, line_no, default=None, minimum=None):
    if key not in kv:
        if default is None:
            raise NetdescError("missing required key %r" % key, line_no)
        return default
    try:
        val = int(kv[key])
    except ValueError:
        raise NetdescError("key %r wants an integer, got %r" % (key, kv[key]), line_no)
    if minimum is not None and val < minimum:
        raise NetdescError("key %r must be >= %d" % (key, minimum), line_no)
    return val


def _float_field(kv, key, line_no):
    try:
        val = float(kv[key])
    except ValueError:
        raise NetdescError("key %r wants a number, got %r" % (key, kv[key]), line_no)
    # parameter blobs carry it as float32, which must not round to 0 or inf
    with np.errstate(over="ignore"):
        as_f32 = float(np.float32(val))
    if not (as_f32 > 0 and math.isfinite(as_f32)):
        raise NetdescError("key %r must be positive and finite as a float32, got %r"
                           % (key, kv[key]), line_no)
    return val


def _act_field(kv, line_no):
    """Returns (fused, act_bits)."""
    if "act" not in kv:
        return True, DEFAULT_ACT_BITS
    if kv["act"] == "none":
        return False, 0
    try:
        n = int(kv["act"])
    except ValueError:
        raise NetdescError("act wants a bit-width or none, got %r" % kv["act"], line_no)
    if not 1 <= n <= 8:
        raise NetdescError("activation bit-width must be 1..8", line_no)
    return True, n


def parse_netdesc(text: str, name: str = "net") -> NetworkSpec:
    layers = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "input":
            if layers:
                raise NetdescError("input must be the first directive", line_no)
            if len(args) != 4:
                raise NetdescError("input wants: H W C BITS", line_no)
            try:
                h, w, c, bits = (int(a) for a in args)
            except ValueError:
                raise NetdescError("input dims must be integers", line_no)
            if h < 1 or w < 1 or c < 1:
                raise NetdescError("input dims must be positive", line_no)
            if not 1 <= bits <= 8:
                raise NetdescError("input bits must be 1..8", line_no)
            layers.append(LayerSpec(kind="input", h=h, w=w, c=c, bits=bits,
                                    src_line=line_no))
            continue
        if not layers:
            raise NetdescError("first directive must be input", line_no)
        if directive == "conv":
            kv = _kv_tokens(args, line_no, ("k", "s", "p", "o", "d", "act"))
            fused, act = _act_field(kv, line_no)
            if fused and "d" not in kv:
                raise NetdescError("conv with an activation needs d=", line_no)
            if not fused and "d" in kv:
                raise NetdescError("conv with act=none takes no d=", line_no)
            layers.append(LayerSpec(
                kind="conv",
                k=_int_field(kv, "k", line_no, minimum=1),
                s=_int_field(kv, "s", line_no, minimum=1),
                p=_int_field(kv, "p", line_no, minimum=0),
                o=_int_field(kv, "o", line_no, minimum=1),
                d=_float_field(kv, "d", line_no) if fused else 0.0,
                fused=fused, act_bits=act, src_line=line_no))
        elif directive in ("maxpool", "avgpool"):
            kv = _kv_tokens(args, line_no, ("k", "s", "p"))
            layers.append(LayerSpec(
                kind=directive,
                k=_int_field(kv, "k", line_no, minimum=1),
                s=_int_field(kv, "s", line_no, minimum=1),
                p=_int_field(kv, "p", line_no, default=0, minimum=0),
                src_line=line_no))
        elif directive == "resblock":
            kv = _kv_tokens(args, line_no, ("o", "s", "d", "act"), flags=("proj",))
            if "d" not in kv:
                raise NetdescError("resblock needs d=", line_no)
            fused, act = _act_field(kv, line_no)
            if not fused:
                raise NetdescError("resblock activations cannot be turned off", line_no)
            layers.append(LayerSpec(
                kind="resblock", k=3, p=1,
                s=_int_field(kv, "s", line_no, minimum=1),
                o=_int_field(kv, "o", line_no, minimum=1),
                d=_float_field(kv, "d", line_no),
                act_bits=act, proj=bool(kv.get("proj")), src_line=line_no))
        elif directive == "fc":
            kv = _kv_tokens(args, line_no, ("o", "d", "act"))
            fused, act = _act_field(kv, line_no)
            if "act" in kv and "d" not in kv and fused:
                raise NetdescError("fc with an activation needs d=", line_no)
            if "d" in kv and not fused:
                raise NetdescError("fc with act=none takes no d=", line_no)
            has_d = "d" in kv
            layers.append(LayerSpec(
                kind="fc", k=1,
                o=_int_field(kv, "o", line_no, minimum=1),
                d=_float_field(kv, "d", line_no) if has_d else 0.0,
                fused=has_d, act_bits=act if has_d else 0, src_line=line_no))
        else:
            raise NetdescError("unknown directive %r" % directive, line_no)
    if not layers:
        raise NetdescError("empty description", 1)
    return _resolve(NetworkSpec(name=name, layers=tuple(layers)))


def _resolve(net: NetworkSpec) -> NetworkSpec:
    """Walk the shape chain, filling in_shape/out_shape and validating."""
    resolved = []
    first = net.layers[0]
    if first.kind != "input":
        raise NetdescError("description must start with input", 1)
    kind = "u8" if first.bits == 8 else "code"
    cur = StreamShape(first.h, first.w, first.c, kind, first.bits)
    resolved.append(replace(first, in_shape=cur, out_shape=cur))
    for i, layer in enumerate(net.layers[1:], start=2):
        if layer.kind == "input":
            raise NetdescError("duplicate input directive", layer.src_line or i)
        try:
            out = _layer_out_shape(layer, cur)
        except ShapeError as e:
            raise NetdescError(str(e), layer.src_line or i)
        resolved.append(replace(layer, in_shape=cur, out_shape=out))
        cur = out
    return NetworkSpec(name=net.name, layers=tuple(resolved))


def _layer_out_shape(layer: LayerSpec, cur: StreamShape) -> StreamShape:
    def spatial(h, w, k, s, p):
        hp, wp = h + 2 * p, w + 2 * p
        if hp < k or wp < k:
            raise ShapeError("window %d exceeds padded input %dx%d" % (k, hp, wp))
        return (hp - k) // s + 1, (wp - k) // s + 1

    if layer.kind == "conv":
        if cur.kind == "accum":
            raise ShapeError("conv cannot consume raw accumulators")
        oh, ow = spatial(cur.h, cur.w, layer.k, layer.s, layer.p)
        if layer.fused:
            return StreamShape(oh, ow, layer.o, "code", layer.act_bits)
        return StreamShape(oh, ow, layer.o, "accum", ACCUM_BITS)
    if layer.kind == "maxpool":
        oh, ow = spatial(cur.h, cur.w, layer.k, layer.s, layer.p)
        return StreamShape(oh, ow, cur.c, cur.kind, cur.bits)
    if layer.kind == "avgpool":
        oh, ow = spatial(cur.h, cur.w, layer.k, layer.s, layer.p)
        return StreamShape(oh, ow, cur.c, "accum", ACCUM_BITS)
    if layer.kind == "resblock":
        if cur.kind != "code":
            raise ShapeError("resblock needs an activation-code input")
        oh, ow = spatial(cur.h, cur.w, 3, layer.s, 1)
        changes = layer.s != 1 or layer.o != cur.c
        if changes and not layer.proj:
            raise ShapeError("resblock changes shape and must say proj")
        if not changes and layer.proj:
            raise ShapeError("proj on a shape-preserving resblock")
        if layer.o < cur.c:
            raise ShapeError("resblock cannot shrink channels")
        return StreamShape(oh, ow, layer.o, "code", layer.act_bits)
    if layer.kind == "fc":
        if layer.fused:
            return StreamShape(1, 1, layer.o, "code", layer.act_bits)
        return StreamShape(1, 1, layer.o, "accum", ACCUM_BITS)
    raise ShapeError("unknown layer kind %r" % layer.kind)


def emit_netdesc(net: NetworkSpec) -> str:
    lines = []
    for layer in net.layers:
        if layer.kind == "input":
            lines.append("input %d %d %d %d" % (layer.h, layer.w, layer.c, layer.bits))
        elif layer.kind == "conv":
            base = "conv k=%d s=%d p=%d o=%d" % (layer.k, layer.s, layer.p, layer.o)
            if layer.fused:
                base += " d=%r" % layer.d
                if layer.act_bits != DEFAULT_ACT_BITS:
                    base += " act=%d" % layer.act_bits
            else:
                base += " act=none"
            lines.append(base)
        elif layer.kind in ("maxpool", "avgpool"):
            base = "%s k=%d s=%d" % (layer.kind, layer.k, layer.s)
            if layer.p:
                base += " p=%d" % layer.p
            lines.append(base)
        elif layer.kind == "resblock":
            base = "resblock o=%d s=%d d=%r" % (layer.o, layer.s, layer.d)
            if layer.act_bits != DEFAULT_ACT_BITS:
                base += " act=%d" % layer.act_bits
            if layer.proj:
                base += " proj"
            lines.append(base)
        elif layer.kind == "fc":
            base = "fc o=%d" % layer.o
            if layer.fused:
                base += " d=%r" % layer.d
                if layer.act_bits != DEFAULT_ACT_BITS:
                    base += " act=%d" % layer.act_bits
            lines.append(base)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stage plans: the single structural expansion shared by the runtime graph,
# the cycle estimator, and the resource estimator

@dataclass
class StagePlan:
    index: int
    name: str
    kind: str  # firstconv | conv | maxpool | avgpool | fc | join | tee | subsample
    in_shape: StreamShape
    out_shape: StreamShape
    layer_index: int
    role: str = ""
    k: int = 1
    s: int = 1
    p: int = 0
    fused: bool = False
    act_bits: int = 0
    d: float = 0.0
    main_src: int = -1  # plan index feeding the main input, -1 = network source
    skip_src: int = None  # joins: plan feeding the skip input
    skip_shape: StreamShape = None  # tee/join: shape of the emitted skip stream

    @property
    def out_ch(self) -> int:
        return self.out_shape.c


def expand_layers(net: NetworkSpec):
    """Expand netdesc layers into pipeline stage plans.

    Residual blocks become an unfused conv, an elementwise join, and a
    fused conv. Consecutive resblocks chain their skip streams; the first
    block of a run seeds the chain through a widening tee, and a shape
    changing block inserts a subsample stage on the skip edge.
    """
    plans = []
    counters = {}
    block_no = 0

    def add(**kw):
        plan = StagePlan(index=len(plans), **kw)
        plans.append(plan)
        return plan

    def conv_name(prefix):
        counters[prefix] = counters.get(prefix, 0) + 1
        return "%s%d" % (prefix, counters[prefix])

    prev = -1
    skip_provider = None  # (plan index, StreamShape) of the live skip stream
    for li, layer in enumerate(net.layers):
        if layer.kind == "input":
            continue
        if layer.kind != "resblock":
            skip_provider = None
        cur = layer.in_shape
        if layer.kind == "conv":
            kind = "firstconv" if cur.kind == "u8" else "conv"
            plan = add(name=conv_name("conv"), kind=kind,
                       in_shape=cur, out_shape=layer.out_shape, layer_index=li,
                       role="main", k=layer.k, s=layer.s, p=layer.p,
                       fused=layer.fused, act_bits=layer.act_bits, d=layer.d,
                       main_src=prev)
            prev = plan.index
        elif layer.kind in ("maxpool", "avgpool"):
            plan = add(name=conv_name("pool"), kind=layer.kind,
                       in_shape=cur, out_shape=layer.out_shape, layer_index=li,
                       k=layer.k, s=layer.s, p=layer.p, main_src=prev)
            prev = plan.index
        elif layer.kind == "fc":
            plan = add(name=conv_name("fc"), kind="fc",
                       in_shape=cur, out_shape=layer.out_shape, layer_index=li,
                       fused=layer.fused, act_bits=layer.act_bits, d=layer.d,
                       main_src=prev)
            prev = plan.index
        elif layer.kind == "resblock":
            block_no += 1
            bname = "block%d" % block_no
            mid = StreamShape(layer.out_shape.h, layer.out_shape.w, layer.o,
                              "accum", ACCUM_BITS)
            if skip_provider is None:
                wide_in = StreamShape(cur.h, cur.w, cur.c, "accum", ACCUM_BITS)
                tee = add(name=bname + "_tee", kind="tee",
                          in_shape=cur, out_shape=cur, layer_index=li, role="tee",
                          main_src=prev, skip_shape=wide_in)
                prev = tee.index
                skip_provider = (tee.index, wide_in)
            conv_a = add(name=bname + "_a", kind="conv",
                         in_shape=cur, out_shape=mid, layer_index=li, role="a",
                         k=3, s=layer.s, p=1, fused=False, main_src=prev)
            src_idx, src_shape = skip_provider
            if src_shape != mid:
                ss = add(name=bname + "_ss", kind="subsample",
                         in_shape=src_shape, out_shape=mid, layer_index=li,
                         role="ss", s=layer.s, main_src=src_idx)
                src_idx, src_shape = ss.index, mid
            join = add(name=bname + "_join", kind="join",
                       in_shape=mid,
                       out_shape=StreamShape(mid.h, mid.w, mid.c, "code", layer.act_bits),
                       layer_index=li, role="join", act_bits=layer.act_bits,
                       d=layer.d, main_src=conv_a.index, skip_src=src_idx,
                       skip_shape=mid)
            conv_b = add(name=bname + "_b", kind="conv",
                         in_shape=join.out_shape, out_shape=layer.out_shape,
                         layer_index=li, role="b", k=3, s=1, p=1,
                         fused=True, act_bits=layer.act_bits, d=layer.d,
                         main_src=join.index)
            prev = conv_b.index
            skip_provider = (join.index, mid)
    return plans


# ---------------------------------------------------------------------------
# builtin models

RESNET18_TEXT = """
# 224x224 RGB, 2-bit activations throughout
input 224 224 3 8
conv k=7 s=2 p=3 o=64 d=4.0
maxpool k=3 s=2 p=1
resblock o=64 s=1 d=4.0
resblock o=64 s=1 d=4.0
resblock o=128 s=2 d=4.0 proj
resblock o=128 s=1 d=4.0
resblock o=256 s=2 d=4.0 proj
resblock o=256 s=1 d=4.0
resblock o=512 s=2 d=4.0 proj
resblock o=512 s=1 d=4.0
avgpool k=7 s=1
fc o=1000
"""

ALEXNET_TEXT = """
input 224 224 3 8
conv k=11 s=4 p=2 o=96 d=4.0
maxpool k=3 s=2
conv k=5 s=1 p=2 o=256 d=4.0
maxpool k=3 s=2
conv k=3 s=1 p=1 o=384 d=4.0
conv k=3 s=1 p=1 o=384 d=4.0
conv k=3 s=1 p=1 o=256 d=4.0
maxpool k=3 s=2
fc o=4096 d=4.0
fc o=4096 d=4.0
fc o=1000
"""


def build_resnet18() -> NetworkSpec:
    return parse_netdesc(RESNET18_TEXT, name="resnet18")


def build_alexnet() -> NetworkSpec:
    return parse_netdesc(ALEXNET_TEXT, name="alexnet")


def build_vgg_like(input_hw: int = 32) -> NetworkSpec:
    lines = ["input %d %d 3 8" % (input_hw, input_hw)]
    for ch in (64, 128, 256):
        lines.append("conv k=3 s=1 p=1 o=%d d=4.0" % ch)
        lines.append("conv k=3 s=1 p=1 o=%d d=4.0" % ch)
        lines.append("maxpool k=2 s=2")
    lines += ["fc o=512 d=4.0", "fc o=512 d=4.0", "fc o=10"]
    return parse_netdesc("\n".join(lines), name="vgg_like")


BUILTIN_BUILDERS = {
    "resnet18": build_resnet18,
    "alexnet": build_alexnet,
    "vgg": build_vgg_like,
}


# ---------------------------------------------------------------------------
# parameter blobs

@dataclass
class ConvParams:
    """One convolution's parameters, raw and preprocessed."""

    raw_weights: np.ndarray  # float32 (K, K, I, O)
    weights: WeightBlock
    bn: list = None  # [BnParams] per output channel
    thresholds: list = None  # [ThresholdSet] per output channel


@dataclass
class LayerParams:
    d: float = 0.0
    convs: dict = field(default_factory=dict)  # 'main' or 'a'/'b'
    join_bn: list = None
    join_thresholds: list = None


def blob_layout(layer: LayerSpec):
    """The tensors a layer stores in a parameter blob, in blob order.

    A list of (key, shape): weights are (K, K, I, O) and batchnorm arrays
    (4, O) as gamma, mean, inv_std, bias. The keys are the ones
    save_params takes; parameterless layers give an empty list.
    """
    cur, o = layer.in_shape, layer.o
    if layer.kind in ("conv", "fc"):
        k, i = (layer.k, cur.c) if layer.kind == "conv" else (1, cur.elements)
        return [("weights", (k, k, i, o))] + ([("bn", (4, o))] if layer.fused else [])
    if layer.kind == "resblock":
        return [("weights_a", (3, 3, cur.c, o)), ("bn_join", (4, o)),
                ("weights_b", (3, 3, o, o)), ("bn_b", (4, o))]
    return []


def _is_weights(shape) -> bool:
    return len(shape) == 4


def _quantizes(layout) -> bool:
    """A layer carries d exactly when it stores batchnorm arrays."""
    return any(not _is_weights(shape) for _, shape in layout)


def layer_param_counts(layer: LayerSpec):
    """(weight floats, batchnorm floats) this layer occupies in a blob."""
    sizes = [(_is_weights(shape), int(np.prod(shape))) for _, shape in blob_layout(layer)]
    return (sum(n for w, n in sizes if w), sum(n for w, n in sizes if not w))


def param_census(net: NetworkSpec):
    """Total f32 payload count the blob must carry after the header."""
    return sum(sum(layer_param_counts(layer)) for layer in net.layers)


class _Reader:
    def __init__(self, payload: np.ndarray):
        self.payload = payload
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        if self.pos + count > len(self.payload):
            raise ParamsError(
                "parameter blob too short: wanted %d more floats, have %d"
                % (count, len(self.payload) - self.pos))
        out = self.payload[self.pos:self.pos + count]
        self.pos += count
        return out


def _bn_list(arr: np.ndarray, layer_no: int):
    out = []
    for ch, (g, m, i, b) in enumerate(arr.T.tolist()):
        if g * i == 0:
            raise ParamsError("layer %d channel %d: gamma * inv_std is zero"
                              % (layer_no, ch))
        out.append(BnParams(gamma=g, mean=m, inv_std=i, bias=b))
    return out


def _conv_params(raw, bn, layer_no, d, n):
    cp = ConvParams(raw_weights=raw, weights=WeightBlock.from_float(raw))
    if bn is not None:
        cp.bn = _bn_list(bn, layer_no)
        cp.thresholds = [fold_batchnorm(p, d, n) for p in cp.bn]
    return cp


def load_params(blob: bytes, net: NetworkSpec):
    """Parse and validate a parameter blob against a network description.

    Returns a list of LayerParams aligned with net.layers. Weights come
    back binarized; batchnorm parameters come back both raw and folded
    into integer threshold sets.
    """
    head = struct.calcsize("<4sII")
    if len(blob) < head:
        raise ParamsError("parameter blob shorter than its header")
    magic, version, layer_count = struct.unpack_from("<4sII", blob, 0)
    if magic != PARAMS_MAGIC:
        raise ParamsError("bad magic %r" % magic)
    if version != PARAMS_VERSION:
        raise ParamsError("unsupported params version %d" % version)
    if layer_count != len(net.layers):
        raise ParamsError("blob describes %d layers, network has %d"
                          % (layer_count, len(net.layers)))
    rest = np.frombuffer(blob, dtype="<f4", offset=head)
    if len(rest) < layer_count:
        raise ParamsError("parameter blob too short for its d header")
    d_header = rest[:layer_count]
    payload = rest[layer_count:]
    if not (np.isfinite(payload).all() and np.isfinite(d_header).all()):
        raise ParamsError("parameter blob contains NaN or infinity")
    reader = _Reader(payload)
    out = []
    for li, layer in enumerate(net.layers):
        d_blob = float(d_header[li])
        layout = blob_layout(layer)
        if not _quantizes(layout):
            if d_blob != 0.0:
                raise ParamsError("layer %d carries d=%r but has no quantizer"
                                  % (li, d_blob))
        elif d_blob != float(np.float32(layer.d)):
            raise ParamsError("layer %d: blob d %r disagrees with description d %r"
                              % (li, d_blob, layer.d))
        t = {}
        for key, shape in layout:
            flat = reader.take(int(np.prod(shape)))
            if _is_weights(shape):
                # stored in cache order: O outer, (row, col, channel) inner
                t[key] = np.moveaxis(flat.reshape(shape[3], *shape[:3]), 0, 3)
            else:
                t[key] = flat.reshape(shape)
        lp = LayerParams(d=d_blob)
        if layer.kind in ("conv", "fc"):
            lp.convs["main"] = _conv_params(t["weights"], t.get("bn"), li,
                                            d_blob, layer.act_bits)
        elif layer.kind == "resblock":
            lp.convs["a"] = _conv_params(t["weights_a"], None, li, 0.0, 0)
            lp.join_bn = _bn_list(t["bn_join"], li)
            lp.join_thresholds = [fold_batchnorm(p, d_blob, layer.act_bits)
                                  for p in lp.join_bn]
            lp.convs["b"] = _conv_params(t["weights_b"], t["bn_b"], li,
                                         d_blob, layer.act_bits)
        out.append(lp)
    if reader.pos != len(payload):
        raise ParamsError("parameter blob too long: %d floats left over"
                          % (len(payload) - reader.pos))
    return out


def save_params(net: NetworkSpec, arrays) -> bytes:
    """Serialize per-layer float arrays into a blob.

    arrays is aligned with net.layers; parameterless layers take None,
    the others a dict holding every key of the layer's blob_layout.
    """
    chunks = [struct.pack("<4sII", PARAMS_MAGIC, PARAMS_VERSION, len(net.layers))]
    d_header = np.zeros(len(net.layers), dtype="<f4")
    payload = []
    for li, (layer, entry) in enumerate(zip(net.layers, arrays)):
        layout = blob_layout(layer)
        if not layout:
            if entry is not None:
                raise ParamsError("layer %d takes no parameters" % li)
            continue
        if entry is None:
            raise ParamsError("layer %d needs parameters" % li)
        if _quantizes(layout):
            d_header[li] = np.float32(layer.d)
        for key, shape in layout:
            arr = np.asarray(entry[key], dtype=np.float32)
            if arr.shape != shape:
                raise ParamsError("%s array %r does not match %r" % (key, arr.shape, shape))
            if _is_weights(shape):
                arr = np.moveaxis(arr, 3, 0)
            payload.append(arr.reshape(-1).astype("<f4"))
    chunks.append(d_header.tobytes())
    chunks.extend(arr.tobytes() for arr in payload)
    return b"".join(chunks)


def _random_bn(rng, o, fan_in, vmax, d, n):
    """Batchnorm parameters whose folded thresholds land inside the
    accumulator range actually reached, so codes spread over all levels."""
    sigma = max(np.sqrt(fan_in) * vmax * 0.5, 1.0)
    gamma = rng.choice([-1.0, 1.0], size=o, p=[0.2, 0.8]) * rng.uniform(0.5, 2.0, o)
    mean = rng.normal(0.0, sigma * 0.5, o)
    inv_std = rng.uniform(0.5, 1.5, o) / sigma
    span = d * (1 << n)
    bias = rng.uniform(0.0, span * 0.75, o)
    return np.stack([gamma, mean, inv_std, bias]).astype(np.float32)


def random_params(net: NetworkSpec, rng) -> bytes:
    """A well-scaled random parameter blob for testing and demos."""
    arrays = []
    for layer in net.layers:
        layout = blob_layout(layer)
        if not layout:
            arrays.append(None)
            continue
        cur = layer.in_shape
        # accum streams hold pooled code values in practice, not full 16-bit
        vmax = 7 if cur.kind == "accum" else (1 << cur.bits) - 1
        entry = {}
        for key, shape in layout:
            if _is_weights(shape):
                entry[key] = rng.normal(0, 1, shape).astype(np.float32)
                fan = shape[0] * shape[1] * shape[2]
                if key == "weights_b":  # a resblock's conv b reads the join's codes
                    vmax = (1 << layer.act_bits) - 1
            else:
                # the join sums one more term, the skip value
                fan_in = fan + 1 if key == "bn_join" else fan
                entry[key] = _random_bn(rng, layer.o, fan_in, vmax, layer.d,
                                        layer.act_bits)
        arrays.append(entry)
    return save_params(net, arrays)
