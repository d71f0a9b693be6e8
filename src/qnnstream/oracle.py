"""Dense reference implementation of the whole pipeline.

Everything here works on full H x W x C integer arrays with none of the
streaming machinery: no line buffers, no FIFOs, no folded thresholds.
Weights are signed straight from the raw floats, activations go through
the exact rational batchnorm quantizer, and range checks fire on exactly
the values that would cross a 16-bit stream. Agreement with the engine
is therefore evidence about the streaming logic, not a shared code path.

dense_conv builds the im2col matrix with a stride trick and multiplies;
dense_conv_loops is a deliberately naive nested-loop version kept as a
cross-check on the cross-check, affordable only on small shapes.

The conv and fc products multiply integers by +/-1 weights in float64,
through BLAS. That is exact: with fan-in K every partial sum, in any
summation order, is an integer of magnitude at most max|x| * K, and an
IEEE double holds every integer below 2**53. _signed_product checks
max|x| * K < 2**53 before each product and falls back to the int64
product (no BLAS) when it does not hold.
"""

import numpy as np

from .quant import ACCUM_BITS, FLOAT64_EXACT, BnQuantizer, check_accum_array


def pad_dense(x: np.ndarray, p: int) -> np.ndarray:
    if not p:
        return x
    return np.pad(x, ((p, p), (p, p), (0, 0)))


def _signs(raw_w: np.ndarray, dtype=np.int64) -> np.ndarray:
    # the sign convention: zero weights count as +1
    return np.where(np.asarray(raw_w) >= 0, dtype(1), dtype(-1))


def _signed_product(x: np.ndarray, raw_w: np.ndarray) -> np.ndarray:
    """x @ signs(raw_w) for int64 x and a (K, O) weight matrix, exactly.

    float64 through BLAS while every partial sum stays below 2**53,
    int64 otherwise.
    """
    top = max(-int(x.min(initial=0)), int(x.max(initial=0)))
    if top * raw_w.shape[0] < FLOAT64_EXACT:
        return (x.astype(np.float64) @ _signs(raw_w, np.float64)).astype(np.int64)
    return x @ _signs(raw_w)


def dense_conv(x: np.ndarray, raw_w: np.ndarray, s: int, p: int) -> np.ndarray:
    k, _, in_ch, out_ch = raw_w.shape
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 3 or x.shape[2] != in_ch:
        raise ValueError("input %r does not feed %d-channel weights"
                         % (x.shape, in_ch))
    xp = pad_dense(x, p)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))
    windows = windows[::s, ::s]  # (oh, ow, C, k, k)
    oh, ow = windows.shape[:2]
    cols = windows.transpose(0, 1, 3, 4, 2).reshape(oh * ow, k * k * in_ch)
    w_mat = raw_w.reshape(k * k * in_ch, out_ch)
    return _signed_product(cols, w_mat).reshape(oh, ow, out_ch)


def dense_conv_loops(x: np.ndarray, raw_w: np.ndarray, s: int, p: int) -> np.ndarray:
    k, _, in_ch, out_ch = raw_w.shape
    xp = pad_dense(np.asarray(x, dtype=np.int64), p)
    hp, wp = xp.shape[:2]
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    w = _signs(raw_w)
    out = np.zeros((oh, ow, out_ch), dtype=np.int64)
    for r in range(oh):
        for col in range(ow):
            for o in range(out_ch):
                acc = 0
                for kr in range(k):
                    for kc in range(k):
                        for ci in range(in_ch):
                            acc += int(xp[r * s + kr, col * s + kc, ci]) \
                                * int(w[kr, kc, ci, o])
                out[r, col, o] = acc
    return out


def dense_maxpool(x: np.ndarray, k: int, s: int, p: int = 0) -> np.ndarray:
    xp = pad_dense(np.asarray(x, dtype=np.int64), p)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))
    return windows[::s, ::s].max(axis=(3, 4))


def dense_avgpool(x: np.ndarray, k: int, s: int, p: int = 0) -> np.ndarray:
    xp = pad_dense(np.asarray(x, dtype=np.int64), p)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))
    sums = windows[::s, ::s].sum(axis=(3, 4))
    m = k * k  # divisor includes pad positions
    return np.sign(sums) * ((2 * np.abs(sums) + m) // (2 * m))


def dense_skip_adapt(skip: np.ndarray, s: int, out_ch: int) -> np.ndarray:
    sub = skip[::s, ::s, :]
    extra = out_ch - sub.shape[2]
    if extra < 0:
        raise ValueError("skip channels cannot shrink")
    if extra:
        zeros = np.zeros(sub.shape[:2] + (extra,), dtype=sub.dtype)
        sub = np.concatenate([sub, zeros], axis=2)
    return sub


def quantize_dense(y: np.ndarray, bn_list, d: float, n: int) -> np.ndarray:
    """Per-channel exact batchnorm quantization of a dense accumulator map."""
    out = np.empty(y.shape, dtype=np.int64)
    for o, bn in enumerate(bn_list):
        out[..., o] = BnQuantizer(bn, d, n).quantize_array(y[..., o])
    return out


def dense_infer(net, params, image: np.ndarray) -> np.ndarray:
    """Run the whole network densely; returns the flat output vector.

    params is the list load_params produces, aligned with net.layers.
    Raises the same overflow error the engine would when a value that
    crosses a 16-bit stream goes out of range.
    """
    ish = net.input_shape
    x = np.asarray(image, dtype=np.int64)
    if x.shape != (ish.h, ish.w, ish.c):
        raise ValueError("input is %r, network wants %r"
                         % (x.shape, (ish.h, ish.w, ish.c)))
    skip = None
    for li, layer in enumerate(net.layers):
        if layer.kind == "input":
            continue
        lp = params[li]
        if layer.kind != "resblock":
            skip = None
        if layer.kind == "conv":
            cp = lp.convs["main"]
            y = dense_conv(x, cp.raw_weights, layer.s, layer.p)
            if layer.fused:
                x = quantize_dense(y, cp.bn, lp.d, layer.act_bits)
            else:
                x = check_accum_array(y, ACCUM_BITS)
        elif layer.kind == "maxpool":
            x = dense_maxpool(x, layer.k, layer.s, layer.p)
        elif layer.kind == "avgpool":
            x = dense_avgpool(x, layer.k, layer.s, layer.p)
        elif layer.kind == "resblock":
            if skip is None:
                skip = x.copy()
            if layer.proj:
                skip = dense_skip_adapt(skip, layer.s, layer.o)
            a = check_accum_array(
                dense_conv(x, lp.convs["a"].raw_weights, layer.s, 1), ACCUM_BITS)
            total = check_accum_array(a + skip, ACCUM_BITS)
            skip = total
            mid = quantize_dense(total, lp.join_bn, lp.d, layer.act_bits)
            cp_b = lp.convs["b"]
            x = quantize_dense(dense_conv(mid, cp_b.raw_weights, 1, 1),
                               cp_b.bn, lp.d, layer.act_bits)
        elif layer.kind == "fc":
            cp = lp.convs["main"]
            flat = x.reshape(-1)
            w_mat = cp.raw_weights.reshape(flat.size, layer.o)
            y = _signed_product(flat, w_mat).reshape(1, 1, layer.o)
            if layer.fused:
                x = quantize_dense(y, cp.bn, lp.d, layer.act_bits)
            else:
                x = check_accum_array(y, ACCUM_BITS)
    return x.reshape(-1).astype(np.int64)
