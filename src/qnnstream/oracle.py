"""Dense reference implementation of the whole pipeline.

Everything here works on full H x W x C maps of integer values, held in
integer or exact float dtypes, with none of the streaming machinery: no
line buffers, no FIFOs. Weights are signed straight from the raw
floats, activations go through the exact rational batchnorm quantizer,
and range checks fire on exactly the values that would cross a 16-bit
stream. Agreement with the engine is therefore evidence about the
streaming logic, not a shared code path.

Both sides decide an activation code by integer boundaries, each from
the same per-layer BnParams arrays. The oracle's code floors come from
one BnQuantizer per layer, which scales the rule batchnorm(a) >= k * d
of every channel to integers A * a + C >= k * D by the channel's least
power of two: code(a) >= k iff sign(A) * a >= ceil((k * D - C) / |A|),
a (levels, C) matrix of floors from a few object-array operations. The
engine's thresholds come from fold_batchnorm, t0 + alpha * step rounded
up, from float64 candidates with a rigorous error bound; only the
channels whose candidates lie within their bound of an integer take
BnQuantizer's floors, so engine == oracle checks every other channel
against a derivation it does not share (tests/reference.py's Fraction
fold checks the rest). Past the floors only the count is shared:
quantize_dense calls BnQuantizer.quantize_array, which hands that
matrix to quant.count_code_floors, the counter the stages use too.
This module imports nothing from kernels or engine and names none of
the engine's thresholds, which tests/test_hygiene.py enforces.

dense_conv builds the im2col matrix with a stride trick and multiplies;
tests/reference.py keeps a deliberately naive nested-loop version as a
cross-check on the cross-check, affordable only on small shapes. It runs
every conv and fc: an fc is a 1x1 conv over one pixel of h*w*c channels.

Every product multiplies integers by +/-1 weights. With fan-in
K every partial sum, in any summation order, is an integer of magnitude
at most max|x| * K, so the product is exact in any type that holds every
integer below that bound. _exact_dtype picks the narrowest, once per
product and before im2col: float32 (sgemm) below 2**24, float64 (dgemm)
below 2**53, int64 (no BLAS) otherwise. The window matrix and the sign
matrix are built directly in it, and the product stays in it:
quantize_dense counts a layer's codes in that dtype, against its floors
rounded to it once (quant.floors_as), which is exact for every
accumulator the float holds. The codes pass on between layers in the
count's narrow dtype, uint8 for up to 8-bit codes, never widened to
int64; a sum over them widens first (dense_avgpool's int64, a residual
sum's float or int64 product), so no narrow arithmetic can wrap.
"""

import numpy as np

from .errors import ParamsError, ShapeError
from .quant import (
    FLOAT32_EXACT,
    FLOAT64_EXACT,
    BnQuantizer,
    check_accum_array,
    check_input_array,
)


def pad_dense(x: np.ndarray, p: int, dtype=None) -> np.ndarray:
    """An H x W x C map with p zeros on each side of both spatial axes,
    in dtype (x's own by default): one np.zeros and one slice
    assignment, which also casts, so padding and converting cost one
    copy. With p zero it is x itself, or x converted once."""
    dtype = dtype or x.dtype
    if not p:
        return x.astype(dtype, copy=False)
    h, w, c = x.shape
    out = np.zeros((h + 2 * p, w + 2 * p, c), dtype=dtype)
    out[p:p + h, p:p + w] = x
    return out


def _signs(raw_w: np.ndarray, dtype) -> np.ndarray:
    # the sign convention: zero weights count as +1
    signs = (np.asarray(raw_w) >= 0).astype(dtype)
    signs *= 2
    signs -= 1
    return signs


def _exact_dtype(x: np.ndarray, fan_in: int):
    """The narrowest dtype in which x times a +/-1 matrix of fan-in
    fan_in is exact: every partial sum stays below max|x| * fan_in."""
    bound = max(-int(x.min(initial=0)), int(x.max(initial=0))) * fan_in
    if bound < FLOAT32_EXACT:
        return np.float32
    if bound < FLOAT64_EXACT:
        return np.float64
    return np.int64


def _out_hw(xp: np.ndarray, k: int, s: int):
    """The output rows and columns of a k x k window at stride s over the
    padded map xp."""
    oh, ow = (xp.shape[0] - k) // s + 1, (xp.shape[1] - k) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError("window %d exceeds padded input %r" % (k, xp.shape))
    return oh, ow


def dense_conv(x: np.ndarray, raw_w: np.ndarray, s: int, p: int) -> np.ndarray:
    """The exact conv of an H x W x C integer map x with the signs of
    raw_w, in the dtype _exact_dtype picks for it: float32, float64 or
    int64, whichever it holds every partial sum in."""
    k, _, in_ch, out_ch = raw_w.shape
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[2] != in_ch:
        raise ShapeError("input %r does not feed %d-channel weights"
                         % (x.shape, in_ch))
    xp = pad_dense(x, p, _exact_dtype(x, k * k * in_ch))
    oh, ow = _out_hw(xp, k, s)
    # every (k, k, C) window, a row of cols, as a read-only view of xp
    r, c, e = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (oh, ow, k, k, in_ch), (s * r, s * c, r, c, e), writeable=False)
    cols = windows.reshape(oh * ow, k * k * in_ch)
    signs = _signs(raw_w.reshape(k * k * in_ch, out_ch), cols.dtype.type)
    return (cols @ signs).reshape(oh, ow, out_ch)


def dense_maxpool(x: np.ndarray, k: int, s: int, p: int = 0) -> np.ndarray:
    """The channelwise max over each k x k window at stride s, pads
    counting as zeros, in x's dtype: a running np.maximum over the k * k
    strided slices of the padded map, one per window offset."""
    xp = pad_dense(np.asarray(x), p)
    oh, ow = _out_hw(xp, k, s)
    rows, cols = (oh - 1) * s + 1, (ow - 1) * s + 1
    out = xp[:rows:s, :cols:s].copy()
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(out, xp[i:i + rows:s, j:j + cols:s], out=out)
    return out


def dense_avgpool(x: np.ndarray, k: int, s: int, p: int = 0) -> np.ndarray:
    # widened before the sum, so that no narrow code dtype can wrap
    xp = pad_dense(np.asarray(x), p, np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))
    sums = windows[::s, ::s].sum(axis=(3, 4))
    m = k * k  # divisor includes pad positions
    return np.sign(sums) * ((2 * np.abs(sums) + m) // (2 * m))


def dense_skip_adapt(skip: np.ndarray, s: int, out_ch: int) -> np.ndarray:
    sub = skip[::s, ::s, :]
    extra = out_ch - sub.shape[2]
    if extra < 0:
        raise ShapeError("skip channels cannot shrink")
    if extra:
        zeros = np.zeros(sub.shape[:2] + (extra,), dtype=sub.dtype)
        sub = np.concatenate([sub, zeros], axis=2)
    return sub


def quantize_dense(y: np.ndarray, bn, d: float, n: int) -> np.ndarray:
    """Per-channel exact batchnorm quantization of an (..., C) accumulator
    map by the layer's BnParams bn: the layer's BnQuantizer code floors,
    a (levels, C) matrix, counted over the whole map at once."""
    return BnQuantizer(bn, d, n).quantize_array(y)


def dense_infer(net, params, image: np.ndarray) -> np.ndarray:
    """Run the whole network densely; returns the flat output vector.

    params is the list load_params produces, aligned with net.layers.
    Raises the same overflow error the engine would when a value that
    crosses a 16-bit stream goes out of range, and the engine's error
    types for a wrong-shaped image, an image value that is not an
    integer in [0, 2**bits) or a params list of the wrong length.
    """
    if params is None or len(params) != len(net.layers):
        raise ParamsError("parameter list does not match the network")
    ish = net.input_shape
    x = np.asarray(image)
    if x.shape != (ish.h, ish.w, ish.c):
        raise ShapeError("input is %r, network wants %r"
                         % (x.shape, (ish.h, ish.w, ish.c)))
    check_input_array(x, ish.bits)
    skip = None
    for li, layer in enumerate(net.layers):
        if layer.kind == "input":
            continue
        lp = params[li]
        if layer.kind != "resblock":
            skip = None
        if layer.kind in ("conv", "fc"):
            if layer.kind == "fc":  # a 1x1 conv over one pixel of h*w*c channels
                x = x.reshape(1, 1, -1)
            cp = lp.convs["main"]
            y = dense_conv(x, cp.raw_weights, layer.s, layer.p)
            if layer.fused:
                x = quantize_dense(y, cp.bn, lp.d, layer.act_bits)
            else:
                x = check_accum_array(y)
        elif layer.kind == "maxpool":
            x = dense_maxpool(x, layer.k, layer.s, layer.p)
        elif layer.kind == "avgpool":
            x = dense_avgpool(x, layer.k, layer.s, layer.p)
        elif layer.kind == "resblock":
            if skip is None:
                skip = x.copy()
            if layer.proj:
                skip = dense_skip_adapt(skip, layer.s, layer.o)
            a = check_accum_array(dense_conv(x, lp.convs["a"].raw_weights, layer.s, 1))
            total = check_accum_array(a + skip)
            skip = total
            mid = quantize_dense(total, lp.join_bn, lp.d, layer.act_bits)
            cp_b = lp.convs["b"]
            x = quantize_dense(dense_conv(mid, cp_b.raw_weights, 1, 1),
                               cp_b.bn, lp.d, layer.act_bits)
    return x.reshape(-1).astype(np.int64)
