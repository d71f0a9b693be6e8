"""Reference implementations the package is tested against.

Nothing in the package runs these; each states a rule in its plainest
form, for the tests to hold the fast paths to.

- BnChannel is one channel's batchnorm parameters, and bn_layer stacks
  channels into the per-layer BnParams the package folds.
- fold_batchnorm_fraction folds batchnorm in Fractions, one channel at
  a time, the plainest exact statement of the threshold rule.
  quant.fold_batchnorm, which folds a whole layer from float64
  candidates and derives exactly only the channels they cannot decide,
  must give the same ThresholdSet for every parameter set and raise the
  same errors.
- bn_code_fraction is the code of one accumulator under batchnorm and
  the uniform quantizer, in Fractions; bn_code_floors_fraction states
  one channel's code floors in Fractions. quant.BnQuantizer, which
  derives a whole layer's floors from dyadic mantissas, must give the
  same sign and floors for every channel.
- apply_threshold decides one channel's code from a ThresholdSet by
  binary search, the scalar reference of quant.count_code_floors; batchnorm and
  quantize_reference are the float semantics both must meet.
- plane_dot, codes_to_planes and quantized_dot are the scalar XNOR /
  popcount dot product that quant.popcount_dot vectorizes.
- dense_conv_loops is the nested-loop convolution oracle.dense_conv
  must equal, and dense_maxpool_loops the nested-loop max pool
  oracle.dense_maxpool must equal.
- width_first_capacity and param_census are closed forms the tests
  compare the package's buffer sizes and blob lengths with.
- window_indices is the index arithmetic a windowed stage's strided
  line-buffer read must agree with.
"""

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

import numpy as np

from qnnstream.errors import QuantizationError, ShapeError
from qnnstream.netdesc import blob_layout
from qnnstream.oracle import pad_dense
from qnnstream.quant import CODE_FLOOR_LIMIT, BnParams, ThresholdSet


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


# one channel's batchnorm parameters, in the order of a blob's slot rows
BnChannel = namedtuple("BnChannel", "gamma mean inv_std bias")


def bn_layer(channels) -> BnParams:
    """The BnParams of a layer of BnChannels, as float64 arrays."""
    rows = np.array([tuple(p) for p in channels], dtype=np.float64).reshape(-1, 4).T
    return BnParams(*rows)


def fold_batchnorm_fraction(bn: BnParams, d: float, n: int) -> ThresholdSet:
    """Fold a layer's batchnorm into integer activation thresholds, one
    channel at a time.

    t0 = mean - bias / (gamma * inv_std), step = d / (gamma * inv_std),
    real thresholds t_alpha = t0 + alpha * step for alpha = 1 .. 2**n - 1.
    Rounding to integers keeps the decision exact on integer accumulators:
    ceil for an ascending ladder (t <= a iff ceil(t) <= a), floor for a
    descending one (a <= t iff a <= floor(t)). A descending channel is
    stored as ThresholdSet counts it, on -a: sign -1 and its floors
    negated, which reverses them into ascending order. Each value is
    clamped to +/- CODE_FLOOR_LIMIT.
    """
    if d <= 0:
        raise QuantizationError("range size d must be positive")
    if n < 1:
        raise QuantizationError("activation bit-width must be >= 1")
    signs, columns = [], []
    rows = (np.asarray(row, dtype=np.float64).tolist()
            for row in (bn.gamma, bn.mean, bn.inv_std, bn.bias))
    for p in map(BnChannel._make, zip(*rows)):
        gi = Fraction(p.gamma) * Fraction(p.inv_std)
        if gi == 0:
            raise QuantizationError("degenerate channel: gamma * inv_std is zero")
        t0 = Fraction(p.mean) - Fraction(p.bias) / gi
        step = Fraction(d) / gi
        reals = [t0 + alpha * step for alpha in range(1, 1 << n)]
        if gi > 0:
            signs.append(1)
            values = [_ceil_frac(t) for t in reals]
        else:
            signs.append(-1)
            values = [-_floor_frac(t) for t in reals]
        columns.append([min(max(v, -CODE_FLOOR_LIMIT), CODE_FLOOR_LIMIT) for v in values])
    return ThresholdSet(sign=np.array(signs, dtype=np.int64),
                        values=np.array(columns, dtype=np.int64).T.copy(), n=n)


def _bn_ratio(p: BnChannel, d: float) -> Fraction:
    if d <= 0:
        raise QuantizationError("range size d must be positive")
    gi = Fraction(p.gamma) * Fraction(p.inv_std)
    if gi == 0:
        raise QuantizationError("degenerate channel: gamma * inv_std is zero")
    return gi


def bn_code_fraction(a: int, p: BnChannel, d: float, n: int) -> int:
    """clamp(floor((gamma * inv_std * (a - mean) + bias) / d), 0, 2**n - 1)
    for an integer accumulator a, in Fractions."""
    gi = _bn_ratio(p, d)
    y = gi * (int(a) - Fraction(p.mean)) + Fraction(p.bias)
    return min(max(_floor_frac(y / Fraction(d)), 0), (1 << n) - 1)


def bn_code_floors_fraction(p: BnChannel, d: float, n: int):
    """One channel's (sign, floors): floors[k - 1] is the least integer
    f_k such that sign * a >= f_k iff
    gamma * inv_std * (a - mean) + bias >= k * d, for k = 1 .. 2**n - 1
    and sign the sign of gamma * inv_std; each clamped to
    +/- CODE_FLOOR_LIMIT."""
    gi = _bn_ratio(p, d)
    sign = 1 if gi > 0 else -1
    # gi * (a - mean) + bias >= k * d iff sign * a >= sign * (mean + (k * d - bias) / gi)
    mean, bias, d = Fraction(p.mean), Fraction(p.bias), Fraction(d)
    floors = [_ceil_frac(sign * (mean + (k * d - bias) / gi)) for k in range(1, 1 << n)]
    return sign, [min(max(f, -CODE_FLOOR_LIMIT), CODE_FLOOR_LIMIT) for f in floors]


def apply_threshold(a: int, ts: ThresholdSet, j: int = 0) -> int:
    """Activation code for accumulator a on channel j, a pure integer
    binary search over the channel's ascending column for sign * a.

    Boundary rule: a equal to a threshold takes the higher code.
    """
    return bisect_right(ts.values[:, j], int(ts.sign[j]) * int(a))


def batchnorm(a, p: BnChannel):
    """The float batchnorm map gamma * (a - mean) * inv_std + bias."""
    return p.gamma * (a - p.mean) * p.inv_std + p.bias


def quantize_reference(y: float, d: float, n: int) -> int:
    """Uniform quantizer over [0, 2**n * d): clamp(floor(y / d), 0, 2**n - 1).

    Float reference semantics. For exact integer-domain work use
    bn_code_fraction, which composes batchnorm and this quantizer
    rationally.
    """
    if d <= 0:
        raise QuantizationError("range size d must be positive")
    code = int(np.floor(y / d))
    return min(max(code, 0), (1 << n) - 1)


def plane_dot(weights: int, plane: int, length: int) -> int:
    """Dot product of packed +/-1 weights with a packed {0,1} bit plane.

    Equals sum_j w_j * b_j via 2 * popcount(w & b) - popcount(b).
    """
    if weights < 0 or plane < 0:
        raise ShapeError("packed operands must be nonnegative")
    if weights.bit_length() > length or plane.bit_length() > length:
        raise ShapeError("operand longer than declared length %d" % length)
    return 2 * (weights & plane).bit_count() - plane.bit_count()


def codes_to_planes(codes, n: int):
    """Split a sequence of n-bit codes into n packed bit planes (LSB first)."""
    planes = [0] * n
    for j, c in enumerate(codes):
        c = int(c)
        if not 0 <= c < (1 << n):
            raise QuantizationError("code %d out of range for %d bits" % (c, n))
        for b in range(n):
            if (c >> b) & 1:
                planes[b] |= 1 << j
    return planes


def quantized_dot(weights: int, codes, length: int, n: int) -> int:
    """Dot product of packed +/-1 weights with n-bit activation codes.

    Decomposes the codes into n bit planes and combines plane_dot results
    by shift-add. Exactly equals the scalar integer dot product.
    """
    if len(codes) != length:
        raise ShapeError("expected %d codes, got %d" % (length, len(codes)))
    total = 0
    for b, plane in enumerate(codes_to_planes(codes, n)):
        total += plane_dot(weights, plane, length) << b
    return total


def dense_conv_loops(x: np.ndarray, raw_w: np.ndarray, s: int, p: int) -> np.ndarray:
    """oracle.dense_conv as nested loops; zero weights count as +1."""
    k, _, in_ch, out_ch = raw_w.shape
    xp = pad_dense(np.asarray(x, dtype=np.int64), p)
    hp, wp = xp.shape[:2]
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    w = np.where(np.asarray(raw_w) >= 0, 1, -1)
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


def dense_maxpool_loops(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """oracle.dense_maxpool as nested loops; pads count as zeros."""
    xp = pad_dense(np.asarray(x, dtype=np.int64), p)
    hp, wp, c = xp.shape
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    out = np.zeros((oh, ow, c), dtype=np.int64)
    for r in range(oh):
        for col in range(ow):
            for ch in range(c):
                out[r, col, ch] = max(int(xp[r * s + kr, col * s + kc, ch])
                                      for kr in range(k) for kc in range(k))
    return out


def width_first_capacity(line_len: int, n_lines: int, c: int, k: int) -> int:
    """Buffer needed if the stream were scanned plane by plane instead."""
    return line_len * n_lines * (c - 1) + line_len * (k - 1) + k


def window_indices(k: int, s: int, c: int, hp: int, wp: int) -> np.ndarray:
    """The stream index of every element of every K x K window over a
    padded hp x wp x c depth-first stream, one row per window in scan
    order: each window's top-left element plus one offset pattern, K
    rows of K * C elements wp * C apart."""
    rows = (np.arange(k) * wp)[:, None] + np.arange(k)[None, :]
    win_offsets = (rows.reshape(-1, 1) * c + np.arange(c)[None, :]).reshape(-1)
    tops = np.arange(0, hp - k + 1, s)[:, None] * wp + np.arange(0, wp - k + 1, s)
    bases = tops.reshape(-1) * c
    return bases[:, None] + win_offsets


def layer_param_counts(layer):
    """(weight floats, batchnorm floats) this layer occupies in a blob."""
    sizes = [(len(shape) == 4, int(np.prod(shape))) for _, shape in blob_layout(layer)]
    return (sum(n for w, n in sizes if w), sum(n for w, n in sizes if not w))


def param_census(net):
    """Total f32 payload count the blob must carry after the header."""
    return sum(sum(layer_param_counts(layer)) for layer in net.layers)
