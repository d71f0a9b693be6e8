"""Quantized arithmetic primitives.

Weight binarization, bit-plane popcount dot products, folding of
batchnorm parameters into integer threshold activations, the exact
batchnorm quantizer the oracle checks them against, and the one counter
that turns accumulators into activation codes. Everything here is pure
and exact: every threshold and code floor is the exact integer the
parameters' exact values give, so the integer decision procedure
agrees with the mathematical definition on every integer accumulator
value, not just away from boundaries.

The engine's boundaries and the oracle's are derived apart, each a
whole layer at once from the (C,) arrays of its BnParams.
fold_batchnorm gives a layer's ThresholdSet, already in the
(sign, ascending columns) form the stages count, as a filter and an
exact fallback: each threshold is first a float64 candidate x with a
rigorous bound err on its distance from the exact real threshold, and
where ceil(x - err) == ceil(x + err), clamped, that ceil is the
threshold. Only a channel with a candidate within its bound of an
integer, or with a zero, subnormal or non-finite gamma * inv_std, is
derived from exact integer ratios (float.as_integer_ratio), in Python
ints in object arrays. Its docstring derives the bound. BnQuantizer
gives its code floors from the dyadic mantissas and exponents of the
parameters (np.frexp), in Python ints throughout. Neither derivation
names the other. Both then count with count_code_floors: the code of a
is the number of integer floors that sign * a reaches. It counts in the
dtype the accumulators came in, int64 or the float32 or float64 an
exact product came out in, with the floors rounded to that float once
(floors_as), which decides every accumulator the float holds exactly as
the integer floors do; check_floor_range refuses the rest. The codes
stay in the count's narrow dtype, uint8 for up to 8-bit codes.

popcount_dot is the modelled XNOR/popcount datapath. A conv stage over
activation codes runs it unless a float32 product with a +/-1 matrix
through BLAS is exact and that matrix small; kernels.blas_signs makes
the choice once per stage. popcount_dot takes the weights as
WeightBlock.words, their only packed form, built once when the
parameters load: a word-major (words, out_ch) uint64 matrix whose column
o is output channel o, so one row holds the same word of every output
channel side by side. It splits a batch of code vectors into n bit
planes packed into the same words, and takes every plane against every
weight column with one AND + np.bitwise_count over the whole batch; the
popcounts are summed over the words axis, which in this layout adds
whole contiguous rows of out_ch counts. The planes combine by
shift-add. tests/reference.py holds the scalar references it is tested
against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AccumOverflowError, QuantizationError, ShapeError

ACCUM_BITS = 16

# an IEEE float32 (double) holds every integer of magnitude below these
# exactly, so an integer product whose partial sums all stay below one is
# exact in that float type, in any summation order
FLOAT32_EXACT = 1 << 24
FLOAT64_EXACT = 1 << 53

# code floors and thresholds are clamped to +/- this, so
# count_code_floors is exact on int64 accumulators of magnitude below it
CODE_FLOOR_LIMIT = 1 << 62

# the largest comparison array count_code_floors builds at once, in bytes
# (one per accumulator and code level). Every engine epilogue and every
# resnet18 map counts its levels in one block; an 8-bit 112 x 112 x 64
# map takes 51 blocks of 5 levels instead of one 205 MB comparison.
COUNT_BLOCK_BYTES = 1 << 22

# x = m * 2**(e - 53) for the 53-bit mantissa m = ldexp(frac, 53) of
# frexp's (frac, e), so BnQuantizer's summed frexp exponents of pm (two
# factors), pm * mm (three), bm and dm less these are each term's
# exponent plus 53; a shift common to all terms moves no floor
_EXP_OFFSETS = np.array([[53], [106], [0], [0]])


def check_floor_range(accums) -> np.ndarray:
    """accums as an array of its own dtype, refused with a
    QuantizationError where count_code_floors would not decide it
    exactly: a float accumulator of magnitude at or past the first
    integer its float cannot hold (FLOAT32_EXACT, FLOAT64_EXACT), an
    integer one at or past CODE_FLOOR_LIMIT, where the clamped floors no
    longer decide, and a NaN."""
    accums = np.asarray(accums)
    limit = CODE_FLOOR_LIMIT
    if accums.dtype.kind == "f":
        limit = min(limit, 1 << (np.finfo(accums.dtype).nmant + 1))
    if accums.size and not (accums.min() > -limit and accums.max() < limit):
        raise QuantizationError("accumulator of magnitude 2**%d or more"
                                % (limit.bit_length() - 1))
    return accums


def check_input_array(values: np.ndarray, bits: int) -> np.ndarray:
    """values as given, refused with a ShapeError unless each is an
    integer in [0, 2**bits): the input frame both the engine and the
    oracle take. A float array must hold integral values; only a
    non-integer dtype is checked for that."""
    if values.dtype.kind not in "biu" and not np.array_equal(values, np.trunc(values)):
        raise ShapeError("input values must be integers")
    if values.size and (values.min() < 0 or values.max() >= 1 << bits):
        raise ShapeError("input values exceed %d bits" % bits)
    return values


def check_accum_array(values: np.ndarray) -> np.ndarray:
    lo = -(1 << (ACCUM_BITS - 1))
    hi = (1 << (ACCUM_BITS - 1)) - 1
    if values.size and (values.min() < lo or values.max() > hi):
        bad = values[(values < lo) | (values > hi)][0]
        raise AccumOverflowError(
            "value %d does not fit a signed %d-bit accumulator" % (int(bad), ACCUM_BITS)
        )
    return values


@dataclass(frozen=True)
class WeightBlock:
    """Bit-packed 1-bit weights for one layer, laid out like the weight cache.

    words is the word-major C-contiguous (words, out_ch) uint64 matrix
    that popcount_dot takes: column o is output channel o, packed as by
    pack_words, so bit j of the column (bit j % 64 of word row j // 64)
    holds the weight for flat index j = (row * k + col) * in_ch + ch,
    channel fastest, and the bits past k * k * in_ch are zero. Bit 1
    encodes +1, bit 0 encodes -1.
    """

    k: int
    in_ch: int
    out_ch: int
    words: np.ndarray

    def __post_init__(self):
        shape = (-(-self.entry_bits // 64), self.out_ch)
        w = self.words
        if not isinstance(w, np.ndarray) or w.dtype != np.uint64 \
                or w.shape != shape or not w.flags.c_contiguous:
            raise ShapeError("weights must be a C-contiguous %d x %d uint64 matrix"
                             % shape)
        tail = self.entry_bits % 64
        if tail and (w[-1] >> np.uint64(tail)).any():
            raise ShapeError("weight column has bits set past its %d weights"
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
        flat = (raw >= 0).transpose(3, 0, 1, 2).reshape(out_ch, k * k * in_ch)
        words = np.ascontiguousarray(pack_words(flat).T)
        return cls(k=k, in_ch=in_ch, out_ch=out_ch, words=words)


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
    """The dot product of every packed +/-1 weight column with every row
    of n-bit codes.

    weights is WeightBlock.words, (words, out_ch) uint64; codes is
    (N, length) with n-bit values. Returns (N, out_ch) int64. Each bit
    plane of the codes is packed into words like the weights and meets
    every weight column in one AND + popcount, all planes, rows and
    output channels at once. The popcounts are reduced over the words
    axis, a middle axis, so each reduction step adds one contiguous row
    of out_ch counts. With the dot of w and a {0,1} plane b equal to
    2 * popcount(w & b) - popcount(b), the shift-add over planes is 2 * sum_b 2**b * popcount(w & plane_b)
    minus the sum of the codes. This is the datapath of every binarized
    conv and fc stage.
    """
    planes = pack_words((codes & _PLANE_MASKS[:n]) != 0)  # (n, N, words)
    hits = np.bitwise_count(planes[:, :, :, None] & weights).sum(axis=2, dtype=np.int32)
    acc = (_PLANE_WEIGHTS[:n] @ hits.reshape(n, -1)).reshape(hits.shape[1:])
    return acc - codes.sum(axis=-1, dtype=np.int64)[:, None]


# float.as_integer_ratio element by element: (numerators, denominators)
_integer_ratios = np.frompyfunc(float.as_integer_ratio, 1, 2)

# fold_batchnorm's error bound: 2**-51 and 2**-50 are 4u and 8u for the
# unit roundoff u = 2**-53, its absolute term counts least subnormals,
# and it holds for a p from the least normal to the largest finite
# float64; the ends x - err and x + err come from one product with the
# (2, 1, 1) column
_FOLD_REL = 2.0 ** -51
_FOLD_ABS = 2.0 ** -1074
_NORMAL_MIN = np.finfo(np.float64).tiny
_FLOAT64_MAX = np.finfo(np.float64).max
_LOWER_UPPER = np.array([-1.0, 1.0])[:, None, None]


@dataclass(frozen=True, eq=False)
class BnParams:
    """Batchnorm parameters of one layer: scale, mean, inverse std and
    bias, one (C,) array each, one value per output channel.

    The fields are in the order of a parameter blob's (4, C) batchnorm
    slot, so BnParams(*slot) holds views of its rows.
    """

    gamma: np.ndarray
    mean: np.ndarray
    inv_std: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class ThresholdSet:
    """Folded batchnorm + activation for the channels of one layer, in
    the form count_code_floors takes.

    sign is (C,) int64, each channel's sign of gamma * inv_std, and
    values a C-contiguous (2**n - 1, C) int64 matrix: the code for
    accumulator a on channel j is the count of values[:, j] that
    sign[j] * a reaches, ties going up. Every column ascends, an
    inverted channel's too (negative gamma * inv_std: it counts the
    thresholds a stays at or below, as v >= a iff -a >= -v). The real
    thresholds of fold_batchnorm are strictly monotone; their integer
    roundings may repeat when |step| < 1.
    """

    sign: np.ndarray
    values: np.ndarray
    n: int

    def __post_init__(self):
        sign, values = self.sign, self.values
        levels = (1 << self.n) - 1
        if values.shape != (levels,) + sign.shape:
            raise QuantizationError("need %d thresholds for %d-bit codes on each "
                                    "of %r signs, got %r"
                                    % (levels, self.n, sign.shape, values.shape))
        if sign.dtype != np.int64 or values.dtype != np.int64 \
                or not values.flags.c_contiguous:
            raise QuantizationError("thresholds must be int64, their values C-contiguous")
        if (values[1:] < values[:-1]).any():
            raise QuantizationError("threshold columns must be ascending")


def fold_batchnorm(bn: BnParams, d: float, n: int) -> ThresholdSet:
    """Fold a layer's batchnorm into integer activation thresholds.

    Per channel, t0 = mean - bias / (gamma * inv_std) and
    step = d / (gamma * inv_std) give the real thresholds
    t_alpha = t0 + alpha * step for alpha = 1 .. 2**n - 1. Rounding to
    integers keeps the decision exact on integer accumulators: ceil for
    an ascending ladder (t <= a iff ceil(t) <= a), floor for a
    descending one (a <= t iff -a >= ceil(-t)), counted on -a. So with
    sign the sign of gamma * inv_std, threshold alpha is
    ceil(sign * t_alpha), clamped to +/- CODE_FLOOR_LIMIT, which decides
    no accumulator of smaller magnitude differently.

    Candidates. p = gamma * inv_std is rounded to float64 and sign read
    from its sign bit, which an underflow to -0.0 keeps. With
    q = bias / |p|, t = sign * mean - q and s = d / |p|, each rounded,
    the candidate x_alpha = t + alpha * s (two more roundings) is
    sign * t_alpha up to

        err_alpha = 2**-51 * (|t| + |q|) + 2**-50 * alpha * s
                    + 2**(n + 2) * 2**-1074,

    and where ceil(x_alpha - err_alpha) == ceil(x_alpha + err_alpha),
    each end clamped, that ceil is the threshold.

    The bound. Let u = 2**-53. A float64 operation returns its exact
    result r up to u * |r|, and an underflowing product or quotient up
    to eta = 2**-1075 (a sum is exact there). For a normal p, |p| is
    |gamma * inv_std| up to u * |p|, so q and s are bias and d over the
    exact |gamma * inv_std| up to (2 + 3u) * u times |q| and s, plus
    (1 + 2u) * eta; t adds u * |t|, alpha * s adds u * |alpha * s| + eta
    and the sum u * |x_alpha|. As |x_alpha| <= (1 + u) * (|t| +
    (1 + u) * alpha * s + eta), x_alpha is sign * t_alpha up to
    u * ((2 + u) * |t| + (2 + 3u) * |q| + (4 + 7u) * alpha * s)
    + (2 + alpha) * (1 + 3u) * eta. Each end x_alpha +/- err_alpha is
    rounded once more, by up to u * (|x_alpha| + err_alpha), so the
    rounded ends enclose sign * t_alpha when err_alpha * (1 - u) is at
    least u * ((3 + 2u) * |t| + (2 + 3u) * |q| + (5 + 9u) * alpha * s)
    + (3 + alpha) * (1 + 3u) * eta. err_alpha, at 4u, 4u and 8u and
    2**(n + 3) * eta, exceeds that with room for its own few roundings.
    Clamping and ceil are monotone, so the clamped ceils of the ends
    enclose the threshold, and equal ends pin it.

    Refinement. A channel is derived exactly instead when one of its
    candidates is ambiguous, or when p is zero, subnormal or not finite.
    A q, t or s that is not finite makes err_alpha infinite or NaN, and
    so ambiguous; a candidate that overflows from finite terms lies far
    past the clamp and decides there. The exact derivation takes every
    field by float.as_integer_ratio, element by element through
    np.frompyfunc, so that sign * t_alpha = (t_num + alpha * s_num) / |den|
    over integers, with s_num > 0, and threshold alpha is
    ceil((t_num + alpha * s_num) / |den|): one floor division per value,
    over object arrays of Python ints. It replaces whole columns, so each
    column comes from one derivation and ascends.
    """
    if d <= 0:
        raise QuantizationError("range size d must be positive")
    if n < 1:
        raise QuantizationError("activation bit-width must be >= 1")
    # a product of two nonzero rationals is nonzero
    if np.count_nonzero(bn.gamma) + np.count_nonzero(bn.inv_std) < 2 * len(bn.gamma):
        raise QuantizationError("degenerate channel: gamma * inv_std is zero")
    alphas = np.arange(1.0, 1 << n)[:, None]
    lim = float(CODE_FLOOR_LIMIT)
    # overflow, division by zero and NaN reach only the columns that
    # are derived exactly below
    with np.errstate(all="ignore"):
        p = np.multiply(bn.gamma, bn.inv_std, dtype=np.float64)
        orient = np.copysign(1.0, p)  # the sign bit, as np.signbit reads it
        mag = np.abs(p)
        q = bn.bias / mag
        t = orient * bn.mean - q
        s = d / mag
        x = t + alphas * s
        err = (_FOLD_REL * (np.abs(t) + np.abs(q)) + (4 << n) * _FOLD_ABS) \
            + alphas * (2 * _FOLD_REL * s)
        ends = x + err * _LOWER_UPPER
        np.maximum(ends, -lim, out=ends)
        np.minimum(ends, lim, out=ends)
        lo, hi = np.ceil(ends, out=ends)
        values = hi.astype(np.int64)
    ambiguous = lo != hi
    abnormal = (mag < _NORMAL_MIN) | (mag > _FLOAT64_MAX)
    if np.count_nonzero(ambiguous) or np.count_nonzero(abnormal):
        cols = np.flatnonzero(np.logical_or.reduce(ambiguous, axis=0) | abnormal)
        fields = np.array([bn.gamma, bn.inv_std, bn.mean, bn.bias], dtype=np.float64)
        # numerators and denominators of gamma, inv_std, mean and bias
        (gn, sn, mn, cn), (gd, sd, md, cd) = _integer_ratios(fields[:, cols])
        pn, pd = gn * sn, gd * sd  # gamma * inv_std, pd > 0
        dn, dd = d.as_integer_ratio()
        # t0 = t_num / den and step = s_num / den, den of the sign of
        # gamma * inv_std
        mcd = md * cd
        den = mcd * pn * dd
        t_num = (mn * cd * pn - cn * pd * md) * dd
        s_num = dn * pd * mcd
        scale = np.abs(den)
        levels = np.arange(1, 1 << n)[:, None]
        exact = (t_num + scale - 1 + levels * s_num) // scale
        values[:, cols] = np.minimum(np.maximum(exact, -CODE_FLOOR_LIMIT), CODE_FLOOR_LIMIT)
    return ThresholdSet(sign=orient.astype(np.int64), values=values, n=n)


class BnQuantizer:
    """Exact composition of batchnorm and the uniform quantizer for the
    channels of one layer, from the arrays of its BnParams.

    code(a) = clamp(floor(batchnorm(a) / d), 0, 2**n - 1), so code(a) >= k
    iff gamma * inv_std * (a - mean) + bias >= k * d, for k = 1 .. 2**n - 1.
    It is the ground truth the threshold path must reproduce.

    Every float is exactly m * 2**e with an integer mantissa m of at most
    53 bits; np.frexp and np.ldexp(., 53) give them for every field of
    every channel at once. With pm = gm * sm and pe = ge + se for
    gamma * inv_std, the rule scaled by 2**-low, low the least exponent of
    its terms, reads A * a + C >= k * D in integers:

        A = pm * 2**(pe - low)
        C = bm * 2**(be - low) - pm * mm * 2**(pe + me - low)
        D = dm * 2**(de - low) > 0

    With sign the sign of A that is sign * a >= ceil((k * D - C) / |A|),
    the code floor -((C - k * D) // |A|), clamped to +/- CODE_FLOOR_LIMIT,
    which decides no accumulator of smaller magnitude differently. A, C
    and D outgrow int64, so they are Python ints in object arrays, and
    every channel's floors for every k come from a few array operations.
    sign is (C,) and floors (levels, C), both int64: the layout
    count_code_floors takes for an (..., C) map.
    """

    def __init__(self, bn: BnParams, d: float, n: int):
        if not d > 0:
            raise QuantizationError("range size d must be positive")
        # one row per field: gamma, inv_std, mean, bias and d, by channel
        fields = np.empty((5, len(bn.gamma)))
        fields[:4] = bn.gamma, bn.inv_std, bn.mean, bn.bias
        fields[4] = d
        if not np.isfinite(fields).all():
            raise QuantizationError("batchnorm parameters and d must be finite")
        frac, exps = np.frexp(fields)
        mants = np.ldexp(frac, 53).astype(np.int64)
        # the mantissa product is zero only if a factor is; the float
        # product also underflows to zero for a pair of subnormals
        if not mants[:2].all():
            raise QuantizationError("degenerate channel: gamma * inv_std is zero")
        self.sign = ((mants[0] ^ mants[1]) >> 63) | 1
        # rows gm, pm = gm * sm, pm * mm, bm and dm, as Python ints, and
        # the sums of their factors' frexp exponents
        terms = mants.astype(object)
        np.multiply.accumulate(terms[:3], axis=0, out=terms[:3])
        np.add.accumulate(exps[:3], axis=0, out=exps[:3])
        exps = exps[1:] - _EXP_OFFSETS
        a, pm_mu, b, dm = terms[1:] << (exps - exps.min(axis=0))
        levels = np.arange(1, 1 << n)[:, None]
        lim = CODE_FLOOR_LIMIT
        quot = (b - pm_mu - levels * dm) // np.abs(a)
        self.floors = -np.minimum(np.maximum(quot, -lim), lim).astype(np.int64)

    def quantize_array(self, accums: np.ndarray) -> np.ndarray:
        """The codes of an (..., C) accumulator map, or of any shape for
        one channel: the count of code floors that sign * a reaches,
        counted in the accumulators' own dtype (count_code_floors)."""
        accums = check_floor_range(accums)
        return count_code_floors(accums, *floors_as(accums.dtype, self.sign, self.floors))


def floors_as(dtype, sign, floors):
    """A layer's int64 sign and code floors for accumulators of dtype,
    rounded once: to that float for a float dtype, so that
    count_code_floors compares in it, and as they are for an integer
    one. Rounding to nearest is monotone, which is all the count needs
    (count_code_floors)."""
    if np.dtype(dtype).kind != "f":
        return sign, floors
    return sign.astype(dtype), floors.astype(dtype)


def count_code_floors(accums: np.ndarray, sign, floors) -> np.ndarray:
    """Activation codes of accumulators against code floors, the one
    code-level counter of the stages and of the oracle.

    The code of a is the count of floors f with sign * a >= f. sign and
    each floors[k] broadcast against accums: an int and a tuple of ints
    for one quantizer, or a (C,) vector and a (levels, C) matrix for the
    channels of the last axis of an (..., C) map. The floors, made
    C-contiguous (a transposed view compares several times slower) and
    shaped (levels, 1, ..., 1, C), meet sign * accums in one broadcast
    comparison summed over the levels axis. Where that comparison would
    pass COUNT_BLOCK_BYTES it runs over blocks of levels that stay
    within it. The sums are uint8 for up to 255 levels (n <= 8), which
    cannot wrap, and int64 past that: returns codes of the shape of
    accums in that count dtype, unwidened.

    The comparison runs in the accumulators' own dtype: int64, or the
    float an exact product came out in, with sign and floors rounded to
    it once (floors_as). That is exact. Take an integer accumulator a
    with |a| below L, L = 2**24 for float32 and 2**53 for float64, and
    an integer floor f rounded monotonically to that float. If |f| <= L
    the rounded floor is f itself. If f > L its rounding is at least L,
    which is more than sign * a, so both sign * a >= f and the rounded
    comparison are false. If f < -L its rounding is at most -L, which
    is less than sign * a, so both are true. An int64 accumulator
    compares with the int64 floors as they are, clamped to +/-
    CODE_FLOOR_LIMIT, which decide every accumulator of smaller
    magnitude as the unclamped floors do.

    So the count is exact for accumulators of magnitude below
    CODE_FLOOR_LIMIT and below their float's L. The oracle's may come
    from anywhere, so it checks them with check_floor_range first; the
    stages' stay far below by construction (kernels.activation) and
    take no check, which would cost more than the count on the
    one-pixel calls of a narrow FIFO.
    """
    signed = accums * sign
    floors = np.ascontiguousarray(floors)
    floors = floors.reshape(floors.shape[:1] + (1,) * (signed.ndim + 1 - floors.ndim)
                            + floors.shape[1:])
    # np.add.reduce, not .sum: a one-pixel call pays no Python wrapper
    count = np.uint8 if len(floors) < 256 else np.int64
    if signed.size * len(floors) <= COUNT_BLOCK_BYTES:
        return np.add.reduce(signed >= floors, axis=0, dtype=count)
    block = max(COUNT_BLOCK_BYTES // signed.size, 1)
    codes = np.zeros(signed.shape, dtype=count)
    for lo in range(0, len(floors), block):
        codes += np.add.reduce(signed >= floors[lo:lo + block], axis=0, dtype=count)
    return codes
