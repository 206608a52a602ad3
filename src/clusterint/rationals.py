"""Arbitrary-precision rational scalars: the stdlib Fraction, as ``QQ``."""

from fractions import Fraction

QQ = Fraction
# the one backend; the benchmark's provenance line reads this flag
_HAVE_GMPY = False

QQ0 = QQ(0)
QQ1 = QQ(1)


def qq(x) -> "QQ":
    """Coerce ints, Fractions, or strings like '3/4' to QQ."""
    if isinstance(x, str):
        if "/" in x:
            a, b = x.split("/")
            return QQ(int(a), int(b))
        return QQ(int(x))
    return QQ(x)


def qq_str(x) -> str:
    """Render a rational as 'p' or 'p/q'."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def random_rational(rng) -> "QQ":
    """Random nonzero rational with |numerator| <= 1000 and 1 <= denominator
    <= 1000: a zero numerator is drawn again, so sample points lie off the
    coordinate hyperplanes."""
    num = 0
    while not num:
        num = rng.randint(-1000, 1000)
    den = rng.randint(1, 1000)
    return QQ(num, den)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)
