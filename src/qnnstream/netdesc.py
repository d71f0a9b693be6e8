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
growth) must say proj, and only then. The parser resolves each layer's
stream shapes as it reads the layer's line, so an error names the first
line that is wrong, whether in its syntax or in its shapes. One table,
_INT_KEYS, states each directive's integer keys, their order, minimums
and defaults; parse_netdesc reads every line through it and emit_netdesc
writes every line from it.

Parameters travel in a flat little-endian blob: magic QNNP, version,
layer count, one f32 quantization range d per layer (0 where the layer
has none), then per layer the raw f32 weights in cache order (output
channel outer, then row, column, channel fastest) followed by the
gamma, mean, inv_std, bias arrays. _blob_slots is the one place that
order is written down: it maps a flat payload to per-layer views, which
load_params reads, and save_params and random_params assign into.
Weights are binarized on load, and each batchnorm slot is folded once,
a whole layer at a time, into the ThresholdSet its stage counts.
"""

import math
import struct
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NetdescError, ParamsError, ShapeError
from .kernels import StreamShape
from .quant import ACCUM_BITS, BnParams, ThresholdSet, WeightBlock, fold_batchnorm

DEFAULT_ACT_BITS = 2
PARAMS_MAGIC = b"QNNP"
PARAMS_VERSION = 1
_HEADER = struct.Struct("<4sII")  # magic, version, layer count


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # input | conv | maxpool | avgpool | resblock | fc
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


def _int_field(kv, key, line_no, default, minimum):
    if key not in kv:
        if default is None:
            raise NetdescError("missing required key %r" % key, line_no)
        return default
    try:
        val = int(kv[key])
    except ValueError:
        raise NetdescError("key %r wants an integer, got %r" % (key, kv[key]), line_no)
    if val < minimum:
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


def _activation(kind, kv, line_no):
    """(fused, act_bits) of a conv, resblock or fc line. act defaults to
    DEFAULT_ACT_BITS, but to none on an fc without d=; a fused layer
    needs d=, a layer with act=none takes no d=, and a resblock cannot
    turn its activation off."""
    default = "none" if kind == "fc" and "d" not in kv else str(DEFAULT_ACT_BITS)
    act = kv.get("act", default)
    fused, n = act != "none", 0
    if fused:
        try:
            n = int(act)
        except ValueError:
            raise NetdescError("act wants a bit-width or none, got %r" % act, line_no)
        if not 1 <= n <= 8:
            raise NetdescError("activation bit-width must be 1..8", line_no)
    if kind == "resblock" and not fused:
        raise NetdescError("resblock activations cannot be turned off", line_no)
    if fused and "d" not in kv:
        raise NetdescError("%s with an activation needs d=" % kind, line_no)
    if not fused and "d" in kv:
        raise NetdescError("%s with act=none takes no d=" % kind, line_no)
    return fused, n


# The grammar of every directive but input: its integer keys in line
# order, as (key, minimum, default), a default of None marking a required
# key. The windows of resblock and fc are fixed; conv, resblock and fc
# also take d= and act= (_activation), and resblock the proj flag.
_INT_KEYS = {
    "conv": (("k", 1, None), ("s", 1, None), ("p", 0, None), ("o", 1, None)),
    "maxpool": (("k", 1, None), ("s", 1, None), ("p", 0, 0)),
    "avgpool": (("k", 1, None), ("s", 1, None), ("p", 0, 0)),
    "resblock": (("o", 1, None), ("s", 1, None)),
    "fc": (("o", 1, None),),
}
_FIXED = {"resblock": {"k": 3, "p": 1}, "fc": {"k": 1}}
_ACTIVATED = ("conv", "resblock", "fc")
_ALLOWED = {kind: tuple(key for key, _, _ in keys) + ("d", "act") * (kind in _ACTIVATED)
            for kind, keys in _INT_KEYS.items()}


# The most elements a stream, a padded stream or a net's parameters may
# hold. A stage keeps at most 16 bytes per element of its padded input
# (a mirrored int32 line-buffer ring of up to two padded frames), and
# a blob 4 per parameter, so below this every allocation's byte count
# is an index-sized integer and a net too big to allocate fails as a
# MemoryError, not an OverflowError or a ValueError.
SIZE_LIMIT = sys.maxsize // 16


def parse_netdesc(text: str, name: str = "net") -> NetworkSpec:
    """Parse a description, resolving each layer's stream shapes as its
    line is read; any error is a NetdescError naming that line, among
    them a layer past SIZE_LIMIT and an input line with no layer after
    it."""
    layers = []
    cur = None  # the shape of the stream the next layer reads
    payload = 0  # parameter floats up to this line
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
            cur = StreamShape(h, w, c, "u8" if bits == 8 else "code", bits)
            layer = LayerSpec(kind="input", in_shape=cur, out_shape=cur)
            input_line = line_no
        else:
            if not layers:
                raise NetdescError("first directive must be input", line_no)
            if directive not in _INT_KEYS:
                raise NetdescError("unknown directive %r" % directive, line_no)
            kv = _kv_tokens(args, line_no, _ALLOWED[directive],
                            flags=("proj",) if directive == "resblock" else ())
            fields = dict(_FIXED.get(directive, {}), proj="proj" in kv)
            if directive in _ACTIVATED:
                fields["fused"], fields["act_bits"] = _activation(directive, kv, line_no)
            for key, minimum, default in _INT_KEYS[directive]:
                fields[key] = _int_field(kv, key, line_no, default, minimum)
            if "d" in kv:
                fields["d"] = _float_field(kv, "d", line_no)
            layer = LayerSpec(kind=directive, in_shape=cur, **fields)
            try:
                cur = _layer_out_shape(layer)
            except ShapeError as e:
                raise NetdescError(str(e), line_no)
            layer = replace(layer, out_shape=cur)
        for _, shape in blob_layout(layer):
            payload += math.prod(shape)
        ish, p = layer.in_shape, layer.p
        padded = (ish.h + 2 * p) * (ish.w + 2 * p) * ish.c
        if max(padded, cur.elements, payload) > SIZE_LIMIT:
            raise NetdescError("too large: a stream or the parameters pass %d elements"
                               % SIZE_LIMIT, line_no)
        layers.append(layer)
    if not layers:
        raise NetdescError("empty description", 1)
    if len(layers) == 1:
        raise NetdescError("input needs a layer after it", input_line)
    return NetworkSpec(name=name, layers=tuple(layers))


def _layer_out_shape(layer: LayerSpec) -> StreamShape:
    """The shape of the stream a non-input layer emits from its in_shape;
    a ShapeError if the layer cannot read that stream."""
    cur = layer.in_shape
    if layer.kind == "conv" and cur.kind == "accum":
        raise ShapeError("conv cannot consume raw accumulators")
    if layer.kind == "resblock":
        if cur.kind != "code":
            raise ShapeError("resblock needs an activation-code input")
        changes = layer.s != 1 or layer.o != cur.c
        if changes and not layer.proj:
            raise ShapeError("resblock changes shape and must say proj")
        if not changes and layer.proj:
            raise ShapeError("proj on a shape-preserving resblock")
        if layer.o < cur.c:
            raise ShapeError("resblock cannot shrink channels")
    if layer.kind == "fc":
        oh = ow = 1
    else:  # a window, 3 x 3 with pad 1 for a resblock (_FIXED)
        k, hp, wp = layer.k, cur.h + 2 * layer.p, cur.w + 2 * layer.p
        if hp < k or wp < k:
            raise ShapeError("window %d exceeds padded input %dx%d" % (k, hp, wp))
        oh, ow = (hp - k) // layer.s + 1, (wp - k) // layer.s + 1
    if layer.kind == "maxpool":
        return StreamShape(oh, ow, cur.c, cur.kind, cur.bits)
    if layer.kind == "avgpool":
        return StreamShape(oh, ow, cur.c, "accum", ACCUM_BITS)
    if layer.fused:
        return StreamShape(oh, ow, layer.o, "code", layer.act_bits)
    return StreamShape(oh, ow, layer.o, "accum", ACCUM_BITS)


def emit_netdesc(net: NetworkSpec) -> str:
    ish = net.input_shape
    lines = ["input %d %d %d %d" % (ish.h, ish.w, ish.c, ish.bits)]
    for layer in net.layers[1:]:
        words = [layer.kind] + ["%s=%d" % (key, getattr(layer, key))
                                for key, _, default in _INT_KEYS[layer.kind]
                                if getattr(layer, key) != default]
        if layer.d:  # 0 exactly where a layer has no activation
            words.append("d=%r" % layer.d)
            if layer.act_bits != DEFAULT_ACT_BITS:
                words.append("act=%d" % layer.act_bits)
        elif layer.kind == "conv":
            words.append("act=none")
        if layer.proj:
            words.append("proj")
        lines.append(" ".join(words))
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
    role: str = "main"  # a weighted plan's key in LayerParams.convs
    k: int = 1
    s: int = 1
    p: int = 0
    fused: bool = False  # carries a batchnorm: a fused conv or fc, or a join
    main_src: int = -1  # plan index feeding the main input, -1 = network source
    skip_src: int = None  # joins: plan feeding the skip input

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
        cur = layer.in_shape
        if layer.kind != "resblock":  # conv, fc or a pool
            skip_provider = None
            weighted = layer.kind in ("conv", "fc")
            kind = "firstconv" if layer.kind == "conv" and cur.kind == "u8" else layer.kind
            prev = add(name=conv_name(layer.kind if weighted else "pool"), kind=kind,
                       in_shape=cur, out_shape=layer.out_shape, layer_index=li,
                       k=layer.k, s=layer.s, p=layer.p,
                       fused=weighted and layer.fused, main_src=prev).index
        else:
            block_no += 1
            bname = "block%d" % block_no
            mid = StreamShape(layer.out_shape.h, layer.out_shape.w, layer.o,
                              "accum", ACCUM_BITS)
            if skip_provider is None:
                wide_in = StreamShape(cur.h, cur.w, cur.c, "accum", ACCUM_BITS)
                tee = add(name=bname + "_tee", kind="tee",
                          in_shape=cur, out_shape=cur, layer_index=li, main_src=prev)
                prev = tee.index
                skip_provider = (tee.index, wide_in)
            conv_a = add(name=bname + "_a", kind="conv",
                         in_shape=cur, out_shape=mid, layer_index=li, role="a",
                         k=layer.k, s=layer.s, p=layer.p, main_src=prev)
            src_idx, src_shape = skip_provider
            if src_shape != mid:
                ss = add(name=bname + "_ss", kind="subsample",
                         in_shape=src_shape, out_shape=mid, layer_index=li,
                         s=layer.s, main_src=src_idx)
                src_idx, src_shape = ss.index, mid
            join = add(name=bname + "_join", kind="join",
                       in_shape=mid,
                       out_shape=StreamShape(mid.h, mid.w, mid.c, "code", layer.act_bits),
                       layer_index=li, fused=True,
                       main_src=conv_a.index, skip_src=src_idx)
            conv_b = add(name=bname + "_b", kind="conv",
                         in_shape=join.out_shape, out_shape=layer.out_shape,
                         layer_index=li, role="b", k=layer.k, p=layer.p,
                         fused=True, main_src=join.index)
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


def build_vgg_like() -> NetworkSpec:
    lines = ["input 32 32 3 8"]
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
    bn: BnParams = None
    thresholds: ThresholdSet = None  # bn folded, every output channel


@dataclass
class LayerParams:
    d: float = 0.0
    convs: dict = field(default_factory=dict)  # 'main' or 'a'/'b'
    join_bn: BnParams = None
    join_thresholds: ThresholdSet = None


def blob_layout(layer: LayerSpec):
    """The tensors a layer stores in a parameter blob, in blob order.

    A list of (key, shape): weights are (K, K, I, O) and batchnorm arrays
    (4, O) as gamma, mean, inv_std, bias. The keys are the ones
    save_params takes; parameterless layers give an empty list.
    """
    cur, k, o = layer.in_shape, layer.k, layer.o
    if layer.kind in ("conv", "fc"):
        i = cur.c if layer.kind == "conv" else cur.elements
        return [("weights", (k, k, i, o))] + ([("bn", (4, o))] if layer.fused else [])
    if layer.kind == "resblock":
        return [("weights_a", (k, k, cur.c, o)), ("bn_join", (4, o)),
                ("weights_b", (k, k, o, o)), ("bn_b", (4, o))]
    return []


def _payload_floats(net: NetworkSpec) -> int:
    return sum(math.prod(shape) for layer in net.layers for _, shape in blob_layout(layer))


def _blob_slots(net: NetworkSpec, payload: np.ndarray):
    """Per layer, {blob_layout key: view of payload}, in blob order.

    This is where the cache order is stated: a weight slot stores output
    channel outer, then row, column and channel fastest, and its view is
    (K, K, I, O) over that slot. payload holds _payload_floats(net)
    floats; loading reads through the views, writing assigns into them.
    """
    slots, pos = [], 0
    for layer in net.layers:
        views = {}
        for key, shape in blob_layout(layer):
            flat = payload[pos:pos + math.prod(shape)]
            pos += len(flat)
            if len(shape) == 4:
                views[key] = flat.reshape(shape[3], *shape[:3]).transpose(1, 2, 3, 0)
            else:
                views[key] = flat.reshape(shape)
        slots.append(views)
    return slots


def _blank_blob(net: NetworkSpec):
    """A zeroed blob for net with its header and d header written, and
    the slots of its payload."""
    count = len(net.layers)
    blob = bytearray(_HEADER.size + 4 * (count + _payload_floats(net)))
    _HEADER.pack_into(blob, 0, PARAMS_MAGIC, PARAMS_VERSION, count)
    floats = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    floats[:count] = [layer.d for layer in net.layers]  # 0 where there is no quantizer
    return blob, _blob_slots(net, floats[count:])


def _bn(slot: np.ndarray, layer_no: int) -> BnParams:
    """The layer's BnParams, views of the rows of its (4, C) slot, once
    no channel's gamma * inv_std is zero. The product is taken in
    float64, where two nonzero float32 factors never underflow to 0."""
    bn = BnParams(*slot)
    product = np.multiply(bn.gamma, bn.inv_std, dtype=np.float64)
    if not product.all():
        raise ParamsError("layer %d channel %d: gamma * inv_std is zero"
                          % (layer_no, np.flatnonzero(product == 0)[0]))
    return bn


def _conv_params(raw, bn, layer_no, d, n):
    cp = ConvParams(raw_weights=raw, weights=WeightBlock.from_float(raw))
    if bn is not None:
        cp.bn = _bn(bn, layer_no)
        cp.thresholds = fold_batchnorm(cp.bn, d, n)
    return cp


def load_params(blob: bytes, net: NetworkSpec):
    """Parse and validate a parameter blob against a network description.

    Returns a list of LayerParams aligned with net.layers. Weights come
    back binarized. Each batchnorm slot comes back twice, one object per
    layer and none per channel: raw, as a BnParams of views of the
    slot's rows, and folded by fold_batchnorm into the layer's
    ThresholdSet, the form its stage counts.
    """
    if len(blob) < _HEADER.size:
        raise ParamsError("parameter blob shorter than its header")
    magic, version, layer_count = _HEADER.unpack_from(blob, 0)
    if magic != PARAMS_MAGIC:
        raise ParamsError("bad magic %r" % magic)
    if version != PARAMS_VERSION:
        raise ParamsError("unsupported params version %d" % version)
    if layer_count != len(net.layers):
        raise ParamsError("blob describes %d layers, network has %d"
                          % (layer_count, len(net.layers)))
    if (len(blob) - _HEADER.size) % 4:
        raise ParamsError("parameter blob holds %d bytes after its header, "
                          "not a whole number of float32 values"
                          % (len(blob) - _HEADER.size))
    floats = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    extra = len(floats) - layer_count - _payload_floats(net)
    if extra < 0:
        raise ParamsError("parameter blob too short: %d floats missing" % -extra)
    if extra > 0:
        raise ParamsError("parameter blob too long: %d floats left over" % extra)
    if not np.isfinite(floats).all():
        raise ParamsError("parameter blob contains NaN or infinity")
    out = []
    slots = _blob_slots(net, floats[layer_count:])
    for li, (layer, t) in enumerate(zip(net.layers, slots)):
        # the parser gives d to exactly the layers with batchnorm arrays
        d_blob = float(floats[li])
        if d_blob != float(np.float32(layer.d)):
            raise ParamsError("layer %d: blob d %r disagrees with description d %r"
                              % (li, d_blob, layer.d))
        lp = LayerParams(d=d_blob)
        if layer.kind in ("conv", "fc"):
            lp.convs["main"] = _conv_params(t["weights"], t.get("bn"), li,
                                            d_blob, layer.act_bits)
        elif layer.kind == "resblock":
            lp.convs["a"] = _conv_params(t["weights_a"], None, li, 0.0, 0)
            lp.join_bn = _bn(t["bn_join"], li)
            lp.join_thresholds = fold_batchnorm(lp.join_bn, d_blob, layer.act_bits)
            lp.convs["b"] = _conv_params(t["weights_b"], t["bn_b"], li,
                                         d_blob, layer.act_bits)
        out.append(lp)
    return out


def save_params(net: NetworkSpec, arrays) -> bytes:
    """Serialize per-layer float arrays into a blob.

    arrays is aligned with net.layers; parameterless layers take None,
    the others a dict holding every key of the layer's blob_layout.
    """
    if len(arrays) != len(net.layers):
        raise ParamsError("%d parameter entries for %d layers"
                          % (len(arrays), len(net.layers)))
    blob, slots = _blank_blob(net)
    for li, (entry, views) in enumerate(zip(arrays, slots)):
        if not views:
            if entry is not None:
                raise ParamsError("layer %d takes no parameters" % li)
            continue
        if entry is None:
            raise ParamsError("layer %d needs parameters" % li)
        for key, view in views.items():
            arr = np.asarray(entry[key])
            if arr.shape != view.shape:
                raise ParamsError("%s array %r does not match %r" % (key, arr.shape, view.shape))
            view[...] = arr
    return bytes(blob)


def _random_bn(rng, o, fan_in, vmax, d, n):
    """Batchnorm parameters whose folded thresholds land inside the
    accumulator range actually reached, so codes spread over all levels."""
    sigma = max(np.sqrt(fan_in) * vmax * 0.5, 1.0)
    gamma = rng.choice([-1.0, 1.0], size=o, p=[0.2, 0.8]) * rng.uniform(0.5, 2.0, o)
    mean = rng.normal(0.0, sigma * 0.5, o)
    inv_std = rng.uniform(0.5, 1.5, o) / sigma
    span = d * (1 << n)
    bias = rng.uniform(0.0, span * 0.75, o)
    return np.stack([gamma, mean, inv_std, bias])


def random_params(net: NetworkSpec, rng) -> bytes:
    """A well-scaled random parameter blob for testing and demos. Each
    draw is written straight into its slot, rounded to float32 there."""
    blob, slots = _blank_blob(net)
    for layer, views in zip(net.layers, slots):
        cur = layer.in_shape
        # accum streams hold pooled code values in practice, not full 16-bit
        vmax = 7 if cur.kind == "accum" else (1 << cur.bits) - 1
        for key, view in views.items():
            if view.ndim == 4:
                view[...] = rng.normal(0, 1, view.shape)
                fan = math.prod(view.shape[:3])
                if key == "weights_b":  # a resblock's conv b reads the join's codes
                    vmax = (1 << layer.act_bits) - 1
            else:
                # the join sums one more term, the skip value
                fan_in = fan + 1 if key == "bn_join" else fan
                view[...] = _random_bn(rng, layer.o, fan_in, vmax, layer.d,
                                       layer.act_bits)
    return bytes(blob)
