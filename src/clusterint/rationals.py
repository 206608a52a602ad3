"""Arbitrary-precision rational scalars.

gmpy2.mpq is used when available (markedly faster on large exact
computations); the stdlib Fraction is a drop-in fallback.  Everything
downstream goes through ``QQ`` so the choice is invisible.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as QQ  # type: ignore
    _HAVE_GMPY = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    QQ = Fraction
    _HAVE_GMPY = False

QQ0 = QQ(0)
QQ1 = QQ(1)


def qq(x) -> "QQ":
    """Coerce ints, Fractions, strings like '3/4', or QQ to QQ."""
    if isinstance(x, str):
        if "/" in x:
            a, b = x.split("/")
            return QQ(int(a), int(b))
        return QQ(int(x))
    if isinstance(x, Fraction) and not isinstance(QQ0, Fraction):
        return QQ(x.numerator, x.denominator)
    return QQ(x)


def qq_str(x) -> str:
    """Render a rational as 'p' or 'p/q'."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def random_rational(rng, bound: int = 1000) -> "QQ":
    """Random rational with |numerator|, denominator <= bound, nonzero denominator."""
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return QQ(num, den)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)
