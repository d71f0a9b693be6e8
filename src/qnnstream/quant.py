"""Quantized arithmetic primitives.

Weight binarization, bit-plane popcount dot products, and folding of
batchnorm parameters into integer threshold activations. Everything here
is pure and exact: thresholds are derived with rational arithmetic so the
integer decision procedure agrees with the mathematical definition on
every integer accumulator value, not just away from boundaries.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AccumOverflowError, QuantizationError, ShapeError

ACCUM_BITS = 16


def pack_bits(bits) -> int:
    """Pack an iterable of 0/1 values into an int, index 0 = LSB."""
    value = 0
    for j, b in enumerate(bits):
        if b:
            value |= 1 << j
    return value


def pack_bit_array(bits: np.ndarray) -> int:
    # packbits gives little-endian bytes when bitorder matches int.from_bytes
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def check_accum_array(values: np.ndarray, width: int = ACCUM_BITS) -> np.ndarray:
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if values.size and (values.min() < lo or values.max() > hi):
        bad = values[(values < lo) | (values > hi)][0]
        raise AccumOverflowError(
            "value %d does not fit a signed %d-bit accumulator" % (int(bad), width)
        )
    return values


@dataclass(frozen=True)
class WeightBlock:
    """Bit-packed 1-bit weights for one layer, laid out like the weight cache.

    One packed entry per output channel; entry bit j holds the weight for
    flat index j = (row * k + col) * in_ch + ch, channel fastest. Bit 1
    encodes +1, bit 0 encodes -1.
    """

    k: int
    in_ch: int
    out_ch: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.out_ch:
            raise ShapeError("expected %d entries, got %d" % (self.out_ch, len(self.entries)))
        span = self.entry_bits
        for e in self.entries:
            if e < 0 or e.bit_length() > span:
                raise ShapeError("entry does not fit %d bits" % span)

    @property
    def entry_bits(self) -> int:
        return self.k * self.k * self.in_ch

    @classmethod
    def from_float(cls, raw: np.ndarray) -> "WeightBlock":
        """Binarize a K x K x I x O float tensor. Sign(0) is +1."""
        if raw.ndim != 4:
            raise ShapeError("weight tensor must be 4-d (K, K, I, O)")
        k, k2, in_ch, out_ch = raw.shape
        if k != k2:
            raise ShapeError("filter window must be square, got %d x %d" % (k, k2))
        ones = raw >= 0
        # (K, K, I, O) -> (O, K*K*I) with channel fastest inside each entry
        flat = np.moveaxis(ones, 3, 0).reshape(out_ch, k * k * in_ch)
        entries = tuple(pack_bit_array(row) for row in flat)
        return cls(k=k, in_ch=in_ch, out_ch=out_ch, entries=entries)

    def signed_matrix(self) -> np.ndarray:
        """Unpack to an (out_ch, entry_bits) int64 matrix of +1 / -1, one
        row per entry, columns in the entry's flat index order."""
        span = self.entry_bits
        nbytes = (span + 7) // 8
        rows = np.empty((self.out_ch, span), dtype=np.int64)
        for o, e in enumerate(self.entries):
            raw = np.frombuffer(e.to_bytes(nbytes, "little"), dtype=np.uint8)
            rows[o] = np.unpackbits(raw, bitorder="little")[:span]
        return rows * 2 - 1


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


def packed_dot(entries, codes: np.ndarray, n: int) -> np.ndarray:
    """quantized_dot of every packed weight entry against one code vector.

    The codes are split into n packed bit planes once; each entry then
    meets each plane in one AND + popcount, and the planes combine by
    shift-add. This is the datapath of every binarized conv and fc stage.
    """
    planes = []
    pops = []
    for b in range(n):
        plane = pack_bit_array((codes >> b) & 1)
        planes.append(plane)
        pops.append(plane.bit_count())
    accs = np.empty(len(entries), dtype=np.int64)
    for o, entry in enumerate(entries):
        acc = 0
        for b in range(n):
            acc += (2 * (entry & planes[b]).bit_count() - pops[b]) << b
        accs[o] = acc
    return accs


@dataclass(frozen=True)
class BnParams:
    """Per-channel batchnorm parameters: scale, mean, inverse std, bias."""

    gamma: float
    mean: float
    inv_std: float
    bias: float

    def scale(self) -> float:
        return self.gamma * self.inv_std


def batchnorm(a, p: BnParams):
    """The float batchnorm map gamma * (a - mean) * inv_std + bias."""
    return p.gamma * (a - p.mean) * p.inv_std + p.bias


def quantize_reference(y: float, d: float, n: int) -> int:
    """Uniform quantizer over [0, 2**n * d): clamp(floor(y / d), 0, 2**n - 1).

    Float reference semantics. For exact integer-domain work use
    BnQuantizer, which composes batchnorm and this quantizer rationally.
    """
    if d <= 0:
        raise QuantizationError("range size d must be positive")
    code = int(np.floor(y / d))
    return min(max(code, 0), (1 << n) - 1)


@dataclass(frozen=True)
class ThresholdSet:
    """Folded batchnorm + activation for one output channel.

    values holds integer thresholds in ascending order. With inverted
    False the code for accumulator a is the count of values <= a; with
    inverted True the comparison direction flips (negative gamma * inv_std).
    The real thresholds tau + alpha * step are strictly monotone; their
    integer roundings in values may repeat when |step| < 1.
    """

    values: tuple
    inverted: bool
    n: int
    tau: float
    step: float

    def __post_init__(self):
        if len(self.values) != (1 << self.n) - 1:
            raise QuantizationError(
                "need %d thresholds for %d-bit codes" % ((1 << self.n) - 1, self.n)
            )
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise QuantizationError("threshold list must be ascending")


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _lossy_float(x: Fraction) -> float:
    """Informational float view of an exact rational; saturates instead
    of raising when a near-zero scale pushes it past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def fold_batchnorm(p: BnParams, d: float, n: int) -> ThresholdSet:
    """Fold batchnorm into integer activation thresholds.

    tau = mean - bias / (gamma * inv_std), step = d / (gamma * inv_std),
    real thresholds t_alpha = tau + alpha * step for alpha = 1 .. 2**n - 1.
    Rounding to integers keeps the decision exact on integer accumulators:
    ceil for an ascending ladder (t <= a iff ceil(t) <= a), floor for a
    descending one (a <= t iff a <= floor(t)).
    """
    if d <= 0:
        raise QuantizationError("range size d must be positive")
    if n < 1:
        raise QuantizationError("activation bit-width must be >= 1")
    gi = Fraction(p.gamma) * Fraction(p.inv_std)
    if gi == 0:
        raise QuantizationError("degenerate channel: gamma * inv_std is zero")
    tau = Fraction(p.mean) - Fraction(p.bias) / gi
    step = Fraction(d) / gi
    reals = [tau + alpha * step for alpha in range(1, 1 << n)]
    if gi > 0:
        values = tuple(_ceil_frac(t) for t in reals)
        inverted = False
    else:
        values = tuple(_floor_frac(t) for t in reversed(reals))
        inverted = True
    return ThresholdSet(values=values, inverted=inverted, n=n,
                        tau=_lossy_float(tau), step=_lossy_float(step))


def apply_threshold(a: int, ts: ThresholdSet) -> int:
    """Activation code for accumulator a, a pure integer binary search.

    Boundary rule: a equal to a threshold takes the higher code.
    """
    a = int(a)
    if not ts.inverted:
        return bisect_right(ts.values, a)
    return len(ts.values) - bisect_left(ts.values, a)


class BnQuantizer:
    """Exact composition of batchnorm and the uniform quantizer.

    code(a) = clamp(floor(batchnorm(a) / d), 0, 2**n - 1) computed with
    integer arithmetic, so it is the ground truth the threshold path must
    reproduce. Parameters are taken rationally via float.as_integer_ratio.
    """

    def __init__(self, p: BnParams, d: float, n: int):
        if d <= 0:
            raise QuantizationError("range size d must be positive")
        gi = Fraction(p.gamma) * Fraction(p.inv_std)
        if gi == 0:
            raise QuantizationError("degenerate channel: gamma * inv_std is zero")
        # batchnorm(a) / d = (A * a + C) / D with D > 0
        pn, pd = gi.numerator, gi.denominator
        mn, md = Fraction(p.mean).numerator, Fraction(p.mean).denominator
        bn_, bd = Fraction(p.bias).numerator, Fraction(p.bias).denominator
        dn, dd = Fraction(d).numerator, Fraction(d).denominator
        self.a_coef = dd * pn * bd * md
        self.c_coef = dd * (bn_ * pd * md - pn * bd * mn)
        self.d_coef = pd * md * bd * dn
        self.n = n
        self.max_code = (1 << n) - 1

    def quantize(self, a: int) -> int:
        code = (self.a_coef * int(a) + self.c_coef) // self.d_coef
        if code < 0:
            return 0
        if code > self.max_code:
            return self.max_code
        return int(code)

    def quantize_array(self, accums: np.ndarray) -> np.ndarray:
        out = np.empty(accums.shape, dtype=np.int64)
        flat_in = accums.reshape(-1)
        flat_out = out.reshape(-1)
        for j in range(flat_in.size):
            flat_out[j] = self.quantize(int(flat_in[j]))
        return out
