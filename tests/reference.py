"""Reference implementations the package is tested against.

fold_batchnorm_fraction folds batchnorm in Fractions, the plainest
exact statement of the threshold rule. quant.fold_batchnorm, which
works in Python integers, must give the same ThresholdSet for every
parameter set and raise the same errors.
"""

from fractions import Fraction

from qnnstream.errors import QuantizationError
from qnnstream.quant import BnParams, ThresholdSet


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def fold_batchnorm_fraction(p: BnParams, d: float, n: int) -> ThresholdSet:
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
