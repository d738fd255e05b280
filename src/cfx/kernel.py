"""Arbitrary-precision arithmetic substrate.

The engine runs in one exact ring: Python ints, ``fractions.Fraction`` and
the Gaussian rationals of :class:`ComplexParam`.  Its recurrence clears the
denominators (:func:`gaussian`) and steps on ints and Gaussian integers, held
as (re, im) pairs of ints.  mpmath ``mpf``/``mpc``
values appear only when an exact value is rounded (:func:`to_mp`, at the
caller's ambient precision) for output, or by :func:`agrees` for comparison
with an oracle.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import mp, mpc, mpf

Scalar = Union[int, Fraction, "ComplexParam", mpf, mpc]


class CFXError(Exception):
    """Base class for all library errors."""


class DomainError(CFXError):
    """Argument outside the mathematical domain (e.g. branch cut)."""


class ParameterError(CFXError):
    """Structurally invalid parameter (wrong range, pole, zero numerator)."""


class SingularError(CFXError):
    """A value is undefined because a denominator vanished."""


class PrecisionError(CFXError):
    """A series oracle did not converge or disagreed with itself."""


class NonConvergenceError(CFXError):
    """Iteration hit its depth cap before reaching the target accuracy."""


def factorial(k: int) -> int:
    """k! as an exact integer."""
    if k < 0:
        raise ParameterError("factorial requires k >= 0")
    return math.factorial(k)


def pochhammer(a: Scalar, k: int) -> Scalar:
    """Rising factorial a(a+1)...(a+k-1) by direct product; (a)_0 = 1.

    The product form keeps rational arguments exact; no gamma ratios.
    """
    if k < 0:
        raise ParameterError("pochhammer requires k >= 0")
    result = a - a + 1 if not isinstance(a, int) else 1
    for j in range(k):
        result = result * (a + j)
    return result


# Complex literal grammar: [-]ddd[.ddd][(+|-)ddd[.ddd]i], no whitespace.
_COMPLEX_RE = _re.compile(
    r"^(?P<re>-?\d+(?:\.\d+)?)(?:(?P<sign>[+-])(?P<im>\d+(?:\.\d+)?)i)?$"
)


@dataclass(frozen=True)
class ComplexParam:
    """Exact rectangular complex number, a Gaussian rational: ``+ - * /`` with
    a ComplexParam, int or Fraction stay exact, and with ``im == 0`` it equals
    (and hashes like) its real part, so one engine serves real and complex z.

    With ``int`` parts it is a Gaussian integer (see :func:`gaussian`):
    ``+ - *`` keep the parts ``int`` and ``/`` returns ``Fraction`` parts."""

    re: Fraction | int
    im: Fraction | int = Fraction(0)

    def __add__(self, other):
        if isinstance(other, ComplexParam):
            return ComplexParam(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return ComplexParam(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "ComplexParam":
        return ComplexParam(-self.re, -self.im)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, ComplexParam):
            a, b, c, d = self.re, self.im, other.re, other.im
            return ComplexParam(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return ComplexParam(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexParam):
            return self * ComplexParam(other.re, -other.im) / other.norm2()
        if isinstance(other, (int, Fraction)):
            return ComplexParam(Fraction(self.re, other), Fraction(self.im, other))
        return NotImplemented

    def __rtruediv__(self, other):
        return ComplexParam(other) / self

    def __eq__(self, other):
        if isinstance(other, ComplexParam):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def norm2(self) -> "int | Fraction":
        """|z|^2 = re^2 + im^2, exact."""
        return self.re * self.re + self.im * self.im

    @property
    def value(self) -> "Fraction | ComplexParam":
        """The number as a ring element: its real part when real, else itself."""
        return self.re if self.im == 0 else self

    @staticmethod
    def parse(text: str) -> "ComplexParam":
        m = _COMPLEX_RE.match(text)
        if m is None:
            raise ParameterError(f"cannot parse complex literal {text!r}")
        re_part = Fraction(m.group("re"))
        if m.group("im") is None:
            return ComplexParam(re_part)
        im_part = Fraction(m.group("im"))
        if m.group("sign") == "-":
            im_part = -im_part
        return ComplexParam(re_part, im_part)

    @staticmethod
    def coerce(z: "ComplexParam | Fraction | int | complex | str") -> "ComplexParam":
        if isinstance(z, ComplexParam):
            return z
        if isinstance(z, str):
            return ComplexParam.parse(z)
        if isinstance(z, complex):
            return ComplexParam(Fraction(z.real), Fraction(z.imag))
        return ComplexParam(Fraction(z))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_nonpositive_integer(self) -> bool:
        """True iff the number is 0, -1, -2, ...: a pole of (b)_k in a denominator."""
        return self.is_real and self.re <= 0 and self.re.denominator == 1

    def to_mp(self) -> Scalar:
        """mpf/mpc at the ambient mpmath precision: an mpf when the number is
        real.  Each part's reduced numerator is rounded to that precision
        first and then divided by its denominator, so a part is rounded
        twice; the correctly rounded quotient can differ in the last bit."""
        re_v = mpf(self.re.numerator) / self.re.denominator
        if self.is_real:
            return re_v
        return mpc(re_v, mpf(self.im.numerator) / self.im.denominator)

    def __str__(self) -> str:
        if self.is_real:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def gaussian(x) -> tuple[int, int, int]:
    """x = (p + iq)/d with integers p, q and d > 0, the least such d."""
    if isinstance(x, int):
        return x, 0, 1
    if not isinstance(x, ComplexParam):
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        x = ComplexParam.coerce(x)
    (p, dp), (q, dq) = x.re.as_integer_ratio(), x.im.as_integer_ratio()
    d = math.lcm(dp, dq)
    return p * (d // dp), q * (d // dq), d


# With Re z < 0, a z whose |Im z| is at most 10^-_CUT_DIGITS counts as on the
# cut: at 30 working digits it cannot be told apart from it.
_CUT_DIGITS = 15


def arg_in_cut_plane(z) -> bool:
    """True iff z avoids the closed negative real axis (|arg z| < pi).

    For negative real part the imaginary part must exceed 10^-15, so values
    indistinguishable from the cut at 30 working digits are rejected.
    """
    z = ComplexParam.coerce(z)
    if z == 0:
        raise DomainError("z = 0 is not in the cut plane")
    return z.re >= 0 or abs(z.im) > Fraction(1, 10**_CUT_DIGITS)


def cut_plane_point(z) -> ComplexParam:
    """z as a ComplexParam; DomainError unless :func:`arg_in_cut_plane` holds."""
    z = ComplexParam.coerce(z)
    if not arg_in_cut_plane(z):
        raise DomainError(f"z = {z} is not in the cut plane")
    return z


def to_mp(x: Scalar) -> Scalar:
    """Convert exact values to mpf at ambient precision; pass floats through.

    A Fraction's numerator is rounded to the precision first and then divided
    by its denominator, as in :meth:`ComplexParam.to_mp`: two roundings, not
    the correctly rounded quotient."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, int):
        return mpf(x)
    if isinstance(x, ComplexParam):
        return x.to_mp()
    return x


def agrees(a: Scalar, b: Scalar, digits: int) -> bool:
    """|a - b| <= 10^-digits max(1, |a|): the one agreement rule of the claim
    checks and the CLI self-checks.

    Two ints or Fractions are compared exactly.  Otherwise both sides are
    rounded with :func:`to_mp` at ``digits`` + 10 digits, whatever the ambient
    precision, and compared there.
    """
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return abs(a - b) * Fraction(10) ** digits <= max(1, abs(a))
    with mp.workdps(digits + 10):
        a, b = to_mp(a), to_mp(b)
        return abs(a - b) <= mpf(10) ** -digits * max(1, abs(a))
