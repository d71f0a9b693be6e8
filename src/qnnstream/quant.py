"""Quantized arithmetic primitives.

Weight binarization, bit-plane popcount dot products, and folding of
batchnorm parameters into integer threshold activations. Everything here
is pure and exact: thresholds are derived with rational arithmetic so the
integer decision procedure agrees with the mathematical definition on
every integer accumulator value, not just away from boundaries.

The stages' dot product kernel is popcount_dot. It takes the weights as
WeightBlock.words, the (out_ch, words) uint64 matrix that is their only
packed form, built once when the parameters load. It splits a batch of
code vectors into n bit planes packed into the same words, and takes
every plane against every weight row with one AND + np.bitwise_count
over the whole batch; the planes combine by shift-add. plane_dot,
codes_to_planes and quantized_dot are the scalar references it is
tested against.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AccumOverflowError, QuantizationError, ShapeError

ACCUM_BITS = 16

# an IEEE double holds every integer of magnitude below this exactly, so
# an integer product whose partial sums all stay below it is exact in
# float64, in any summation order
FLOAT64_EXACT = 1 << 53


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

    words holds one row of uint64 words per output channel, the layout of
    pack_words and the operand of popcount_dot: bit j of a row (bit
    j % 64 of word j // 64) holds the weight for flat index
    j = (row * k + col) * in_ch + ch, channel fastest, and the bits past
    k * k * in_ch are zero. Bit 1 encodes +1, bit 0 encodes -1.
    """

    k: int
    in_ch: int
    out_ch: int
    words: np.ndarray

    def __post_init__(self):
        shape = (self.out_ch, -(-self.entry_bits // 64))
        w = self.words
        if not isinstance(w, np.ndarray) or w.dtype != np.uint64 \
                or w.shape != shape or not w.flags.c_contiguous:
            raise ShapeError("weights must be a C-contiguous %d x %d uint64 matrix"
                             % shape)
        tail = self.entry_bits % 64
        if tail and (w[:, -1] >> np.uint64(tail)).any():
            raise ShapeError("weight row has bits set past its %d weights"
                             % self.entry_bits)

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
        # (K, K, I, O) -> (O, K*K*I) with channel fastest inside each row
        flat = np.moveaxis(raw >= 0, 3, 0).reshape(out_ch, k * k * in_ch)
        return cls(k=k, in_ch=in_ch, out_ch=out_ch, words=pack_words(flat))

    def signed_matrix(self) -> np.ndarray:
        """Unpack to an (out_ch, entry_bits) int64 matrix of +1 / -1, one
        row per output channel, columns in flat index order."""
        bits = np.unpackbits(self.words.view(np.uint8), axis=1,
                             count=self.entry_bits, bitorder="little")
        return bits.astype(np.int64) * 2 - 1


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


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into C-contiguous uint64 words.

    Value j of a row lands in word j // 64 at bit j % 64, so a row read
    as one little-endian integer has bit j set for value j; the last
    word is zero filled.
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    # a fresh zeroed buffer: packbits of a strided view may itself be
    # strided, and view() needs the bytes of a row to be contiguous
    full = np.zeros(packed.shape[:-1] + (-(-bits.shape[-1] // 64) * 8,), dtype=np.uint8)
    full[..., :packed.shape[-1]] = packed
    return full.view("<u8")


# plane b of a code is its bit b, for every bit of an int32 code
_PLANE_MASKS = (1 << np.arange(31, dtype=np.int32))[:, None, None]
_PLANE_WEIGHTS = 2 << np.arange(31, dtype=np.int64)


def popcount_dot(weights: np.ndarray, codes: np.ndarray, n: int) -> np.ndarray:
    """quantized_dot of every packed weight row against every row of codes.

    weights is WeightBlock.words, (out_ch, words) uint64; codes is
    (N, length) with n-bit values. Returns (N, out_ch) int64. Each bit
    plane of the codes is packed into words like the weights and meets
    every weight row in one AND + popcount, all planes, rows and output
    channels at once. With plane_dot = 2 * popcount(w & b) - popcount(b)
    the shift-add over planes is 2 * sum_b 2**b * popcount(w & plane_b)
    minus the sum of the codes. This is the datapath of every binarized
    conv and fc stage.
    """
    planes = pack_words((codes & _PLANE_MASKS[:n]) != 0)  # (n, N, words)
    hits = np.bitwise_count(planes[:, :, None, :] & weights).sum(axis=-1, dtype=np.int64)
    acc = (_PLANE_WEIGHTS[:n] @ hits.reshape(n, -1)).reshape(hits.shape[1:])
    return acc - codes.sum(axis=-1, dtype=np.int64)[:, None]


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
    The real thresholds of fold_batchnorm are strictly monotone; their
    integer roundings in values may repeat when |step| < 1.
    """

    values: tuple
    inverted: bool
    n: int

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


def fold_batchnorm(p: BnParams, d: float, n: int) -> ThresholdSet:
    """Fold batchnorm into integer activation thresholds.

    t0 = mean - bias / (gamma * inv_std), step = d / (gamma * inv_std),
    real thresholds t_alpha = t0 + alpha * step for alpha = 1 .. 2**n - 1.
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
    t0 = Fraction(p.mean) - Fraction(p.bias) / gi
    step = Fraction(d) / gi
    reals = [t0 + alpha * step for alpha in range(1, 1 << n)]
    if gi > 0:
        values = tuple(_ceil_frac(t) for t in reals)
        inverted = False
    else:
        values = tuple(_floor_frac(t) for t in reversed(reals))
        inverted = True
    return ThresholdSet(values=values, inverted=inverted, n=n)


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
        gn, gd = float(p.gamma).as_integer_ratio()
        sn, sd = float(p.inv_std).as_integer_ratio()
        pn, pd = gn * sn, gd * sd  # gamma * inv_std
        if pn == 0:
            raise QuantizationError("degenerate channel: gamma * inv_std is zero")
        # batchnorm(a) / d = (A * a + C) / D with D > 0; the ratios are
        # not reduced, which scales A, C and D alike and moves no floor
        mn, md = float(p.mean).as_integer_ratio()
        bn_, bd = float(p.bias).as_integer_ratio()
        dn, dd = float(d).as_integer_ratio()
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
        """quantize of every element, the same shape in int64.

        Each distinct value is quantized once, in Python integers held
        in an object array, and the codes are scattered back through the
        inverse index, which has the shape of accums.
        """
        values, inverse = np.unique(accums, return_inverse=True)
        codes = (self.a_coef * values.astype(object) + self.c_coef) // self.d_coef
        return np.clip(codes, 0, self.max_code).astype(np.int64)[inverse]
