"""Exact arithmetic in the real multiquadratic field Q(sqrt2, sqrt3, sqrt5).

Every coefficient in the package lives in this degree-8 field.  A value is
stored as eight integer numerators over a common positive denominator, with
coordinates taken against the radical basis

    1, sqrt2, sqrt3, sqrt5, sqrt6, sqrt10, sqrt15, sqrt30.

The form is canonical: the denominator is positive and coprime to the
numerators together, so zero is eight zeros over 1.  It is established in
two places.  The one checked constructor, Scalar.__init__, takes values from
outside (parsing, pickles, tuples from other modules): it checks the length
and the sign of the denominator and reduces by the gcd.  The field's own
results (sums, differences, products, negations, conjugates, ints and
Fractions) are built past it by two private constructors, since their
denominators are products of positive ones: each is reduced by one gcd and
nothing more.  Those of rational operands compute the one rational
coordinate only.

A rational value's exact text is its one term, p or p/q, followed by the
fixed zero tail " + 0*r2 + ... + 0*r30", and the parser reads that form in
one step.

All operations are exact; floating point appears only in the optional
decimal rendering of reports.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from itertools import chain, compress
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

#: Radicands of the basis elements, in fixed coordinate order.
RADICANDS: tuple[int, ...] = (1, 2, 3, 5, 6, 10, 15, 30)

_INDEX = {r: i for i, r in enumerate(RADICANDS)}
_RAD_NAMES = tuple("1" if r == 1 else f"r{r}" for r in RADICANDS)
_EXACT_SUFFIXES = ("",) + tuple(f"*{name}" for name in _RAD_NAMES[1:])


def _split_square(n: int) -> tuple[int, int]:
    """Split n = c*c*s with s squarefree (n a product of two radicands)."""
    c = 1
    for p in (2, 3, 5):
        if n % (p * p) == 0:
            n //= p * p
            c *= p
    return c, n


#: _MUL[i][j] = (k, c) meaning basis[i] * basis[j] = c * basis[k].
_MUL: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        (_INDEX[_split_square(a * b)[1]], _split_square(a * b)[0])
        for b in RADICANDS
    )
    for a in RADICANDS
)

#: Sign patterns of the seven nontrivial field automorphisms (flips of
#: sqrt2, sqrt3, sqrt5 in every combination except the identity).
_CONJ_SIGNS: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        (-1 if (s2 and r % 2 == 0) else 1)
        * (-1 if (s3 and r % 3 == 0) else 1)
        * (-1 if (s5 and r % 5 == 0) else 1)
        for r in RADICANDS
    )
    for s2 in (False, True)
    for s3 in (False, True)
    for s5 in (False, True)
    if s2 or s3 or s5
)

_ZERO7 = (0,) * 7
_ZERO8 = (0,) * 8
#: The seven zero radical terms that end a rational value's exact text.
_ZERO_TAIL = "".join(f" + 0{suffix}" for suffix in _EXACT_SUFFIXES[1:])


@functools.total_ordering
class Scalar:
    """An immutable element of Q(sqrt2, sqrt3, sqrt5)."""

    __slots__ = ("nums", "den", "_rat")

    def __init__(self, nums: tuple[int, ...] | list[int], den: int = 1):
        nums = tuple(nums)
        if len(nums) != 8:
            raise ValueError("a scalar needs exactly 8 coordinates")
        if den <= 0:
            if not den:
                raise ZeroDivisionError("scalar denominator is zero")
            nums = tuple(-n for n in nums)
            den = -den
        g = gcd(den, *nums)
        if g > 1:
            nums = tuple(n // g for n in nums)
            den //= g
        _set_nums(self, nums)
        _set_den(self, den)
        _set_rat(self, nums[1:] == _ZERO7)

    def __setattr__(self, *_args):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    # Copies and pickles rebuild through __init__, not the guard above.
    def __reduce__(self):
        return (Scalar, (self.nums, self.den))

    def __copy__(self) -> "Scalar":
        return self

    def __deepcopy__(self, memo) -> "Scalar":
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "Scalar":
        return _rational(n, 1)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Scalar":
        q = Fraction(q)
        return _rational(q.numerator, q.denominator)

    @classmethod
    def of_radical(cls, radicand: int, coeff: Fraction | int = 1) -> "Scalar":
        """coeff * sqrt(radicand), for radicand in RADICANDS."""
        if radicand not in _INDEX:
            raise ValueError(f"unsupported radicand {radicand}")
        q = Fraction(coeff)
        nums = [0] * 8
        nums[_INDEX[radicand]] = q.numerator
        return cls(tuple(nums), q.denominator)

    # -- predicates -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._rat

    def as_fraction(self) -> Fraction:
        if not self._rat:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return self.nums != _ZERO8

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        if self._rat:
            # Equal to the hash of the equal int or Fraction.
            if self.den == 1:
                return hash(self.nums[0])
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    # -- ring operations --------------------------------------------------

    def __neg__(self) -> "Scalar":
        if self._rat:
            return _rational(-self.nums[0], self.den)
        return _reduced(tuple(-n for n in self.nums), self.den)

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if self._rat and other._rat:
            return _rational(self.nums[0] * db + other.nums[0] * da, da * db)
        return _reduced(
            tuple(a * db + b * da for a, b in zip(self.nums, other.nums)),
            da * db,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if self._rat and other._rat:
            return _rational(self.nums[0] * db - other.nums[0] * da, da * db)
        return _reduced(
            tuple(a * db - b * da for a, b in zip(self.nums, other.nums)),
            da * db,
        )

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self._rat:
            a = self.nums[0]
            if a == 0:
                return ZERO
            if other._rat:
                return _rational(a * other.nums[0], self.den * other.den)
            return _reduced(tuple(a * n for n in other.nums), self.den * other.den)
        if other._rat:
            b = other.nums[0]
            if b == 0:
                return ZERO
            return _reduced(tuple(b * n for n in self.nums), self.den * other.den)
        acc = [0] * 8
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            row = _MUL[i]
            for j, b in enumerate(other.nums):
                if b == 0:
                    continue
                k, c = row[j]
                acc[k] += a * b * c
        return _reduced(tuple(acc), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.nums == _ZERO8:
            raise ZeroDivisionError("division by zero scalar")
        if self._rat:
            return Scalar((self.den,) + _ZERO7, self.nums[0])
        # Product of the seven nontrivial conjugates; times self it gives the
        # (rational) field norm, so inverse = product / norm.
        prod = _conjugate(self, 0)
        for k in range(1, 7):
            prod = prod * _conjugate(self, k)
        norm = self * prod
        if not norm._rat:
            raise ArithmeticError("field norm came out irrational")
        n0 = norm.nums[0]
        return Scalar(tuple(p * norm.den for p in prod.nums), prod.den * n0)

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign under the real embedding (sqrt2 = 1.414..., etc.)."""
        if self.nums == _ZERO8:
            return 0
        if self._rat:
            return 1 if self.nums[0] > 0 else -1
        prec = 8
        while True:
            lo, hi = self._bounds(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _bounds(self, prec: int) -> tuple[int, int]:
        """Integer bounds with value in [lo, hi] / (den * 2**prec)."""
        lo = hi = 0
        for n, s in zip(self.nums, RADICANDS):
            if n == 0:
                continue
            r = isqrt(s << (2 * prec))
            if n > 0:
                lo += n * r
                hi += n * (r + 1)
            else:
                lo += n * (r + 1)
                hi += n * r
        return lo, hi

    def approx(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational interval of width at most 2**-bits containing the value."""
        if bits < 1:
            raise ValueError("bits must be at least 1")
        if not any(self.nums):
            return (Fraction(0), Fraction(0))
        spread = sum(abs(n) for n in self.nums)
        prec = bits + spread.bit_length() + 2
        while True:
            lo, hi = self._bounds(prec)
            d = self.den << prec
            if Fraction(hi - lo, d) <= Fraction(1, 1 << bits):
                return (Fraction(lo, d), Fraction(hi, d))
            prec *= 2

    def __float__(self) -> float:
        lo, hi = self.approx(64)
        return float((lo + hi) / 2)

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    # -- roots ------------------------------------------------------------

    def sqrt(self) -> "Scalar":
        """Exact square root of a nonnegative rational value, if it stays in
        the field (its squarefree part must be one of the basis radicands)."""
        if not self._rat:
            raise ValueError(f"square root of irrational {self} not supported")
        num, den = self.nums[0], self.den
        if num < 0:
            raise ValueError("square root of a negative value")
        if num == 0:
            return ZERO
        m = num * den  # sqrt(num/den) = sqrt(num*den)/den
        square, free = 1, m
        p = 2
        while p * p <= free:
            while free % (p * p) == 0:
                free //= p * p
                square *= p
            p += 1 if p == 2 else 2
        if free not in _INDEX:
            raise ValueError(f"sqrt({self}) lies outside the field")
        nums = [0] * 8
        nums[_INDEX[free]] = square
        return _reduced(tuple(nums), den)

    # -- rendering --------------------------------------------------------

    def coefficient(self, radicand: int) -> Fraction:
        """The rational coordinate multiplying sqrt(radicand)."""
        return Fraction(self.nums[_INDEX[radicand]], self.den)

    def exact_str(self) -> str:
        """Full fixed-form rendering: p0 + p1*r2 + ... + p7*r30, each p_i
        in lowest terms."""
        den = self.den
        if self._rat:
            # Canonical form: the one term is already in lowest terms.
            n = self.nums[0]
            return (f"{n}" if den == 1 else f"{n}/{den}") + _ZERO_TAIL
        parts = []
        for n, suffix in zip(self.nums, _EXACT_SUFFIXES):
            g = gcd(n, den) if n else den
            parts.append(
                f"{n // g}{suffix}" if g == den else f"{n // g}/{den // g}{suffix}"
            )
        return " + ".join(parts)

    def __str__(self) -> str:
        if not any(self.nums):
            return "0"
        out = []
        for i, name in enumerate(_RAD_NAMES):
            n = self.nums[i]
            if n == 0:
                continue
            q = Fraction(abs(n), self.den)
            body = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
            if i > 0:
                body = name if body == "1" else f"{body}*{name}"
            if not out:
                out.append(body if n > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _coerce(x) -> "Scalar":
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar.from_int(x)
    if isinstance(x, Fraction):
        return Scalar.from_fraction(x)
    return NotImplemented


def _conjugate(a: Scalar, which: int) -> Scalar:
    return _reduced(tuple(map(mul, _CONJ_SIGNS[which], a.nums)), a.den)


# The slot setters that __init__ and the two constructors below write
# through, past the immutability guard.
_set_nums = Scalar.nums.__set__
_set_den = Scalar.den.__set__
_set_rat = Scalar._rat.__set__
_new = object.__new__


def _rational(n: int, d: int) -> Scalar:
    """n / d for d > 0, reduced by one gcd, past the checks of __init__."""
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    x = _new(Scalar)
    _set_nums(x, (n,) + _ZERO7)
    _set_den(x, d)
    _set_rat(x, True)
    return x


def _reduced(nums: tuple[int, ...], d: int) -> Scalar:
    """The eight coordinates nums over d > 0, reduced by one gcd, past the
    checks of __init__."""
    g = gcd(d, *nums)
    if g > 1:
        nums = tuple(n // g for n in nums)
        d //= g
    x = _new(Scalar)
    _set_nums(x, nums)
    _set_den(x, d)
    _set_rat(x, nums[1:] == _ZERO7)
    return x


ZERO = Scalar(_ZERO8, 1)
ONE = Scalar.from_int(1)
SQRT2 = Scalar.of_radical(2)
SQRT3 = Scalar.of_radical(3)
SQRT5 = Scalar.of_radical(5)
SQRT6 = Scalar.of_radical(6)
SQRT10 = Scalar.of_radical(10)
SQRT15 = Scalar.of_radical(15)
SQRT30 = Scalar.of_radical(30)


def scalar(x: "Scalar | int | Fraction") -> Scalar:
    """Coerce an int or Fraction (or pass a Scalar through)."""
    if type(x) is Scalar:
        return x
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot make a scalar from {x!r}")
    return s


def clear_denominators(values: Iterable[Scalar]) -> list[int] | None:
    """The integers d * v for the least d > 0 that makes every v integral,
    or None when some v is irrational."""
    values = list(values)
    if not all(v._rat for v in values):
        return None
    d = lcm(*(v.den for v in values))
    return [v.nums[0] * (d // v.den) for v in values]


# -- ring rows ----------------------------------------------------------------
#
# An element of the ring spanned over Z by the radical basis, as its nonzero
# integer coordinates: (index into RADICANDS, coordinate) pairs in increasing
# index order.  Zero is the empty tuple, so truth tests work as for ints, and
# a product visits nonzero terms only.  Fraction-free elimination runs on
# rows of these, with no pivot inverted.

Ring = tuple[tuple[int, int], ...]


def ring_lift(values: Iterable[Scalar]) -> list[Ring]:
    """The ring elements d * v for the least d > 0 that makes every v
    integral."""
    values = list(values)
    d = lcm(*(v.den for v in values))
    return [ring_pack([n * (d // v.den) for n in v.nums]) for v in values]


def ring_pack(acc: Sequence[int]) -> Ring:
    """The ring element with the eight coordinates acc."""
    return tuple(compress(enumerate(acc), acc))


def ring_scalar(a: Ring, den: int = 1) -> Scalar:
    """The scalar a / den, for den > 0."""
    nums = [0] * 8
    for i, x in a:
        nums[i] = x
    return _reduced(tuple(nums), den)


def ring_mac(acc: list[int], a: Ring, b: Ring) -> None:
    """acc += a * b on eight coordinates, in place, by the product table of
    the radical basis."""
    for i, x in a:
        row = _MUL[i]
        for j, y in b:
            k, c = row[j]
            acc[k] += c * x * y


def ring_neg(a: Ring) -> Ring:
    return tuple((i, -x) for i, x in a)


def ring_combine(
    p: Ring, row: Sequence[Ring], c: Ring, prow: Sequence[Ring]
) -> list[Ring]:
    """p * row - c * prow, divided by the gcd of all its integer
    coordinates: a fraction-free row update, which keeps the span of the
    row over the field.  Where x is c and y is p, as at the pivot column,
    the entry p * c - c * p is zero without a product."""
    neg_c = ring_neg(c)
    new = []
    for x, y in zip(row, prow):
        acc = [0] * 8
        if x is not c or y is not p:
            ring_mac(acc, p, x)
            ring_mac(acc, neg_c, y)
        new.append(acc)
    g = gcd(*chain.from_iterable(new))
    if g > 1:
        new = [[v // g for v in e] for e in new]
    return [ring_pack(e) for e in new]


def radical_labels(
    rows: Sequence[Mapping[int, Scalar]], ncols: int
) -> tuple[list[int], list[int]] | None:
    """Radicands u_i of the rows and t_j of the ncols columns such that
    every entry rows[i][j] * sqrt(t_j) is a rational multiple of sqrt(u_i),
    or None when some entry mixes radicals or no such labels exist.

    Each row maps its columns to its nonzero entries; the other entries are
    zero.  Rational data gets u = t = 1.  A breadth-first search over the
    bipartite graph of nonzero entries finds the labels, rooting each
    connected piece at radicand 1.
    """
    nrows = len(rows)
    edges: list[list[tuple[int, int]]] = [[] for _ in range(nrows + ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v._rat:
                k = 0
            else:
                ks = [k for k, n in enumerate(v.nums) if n]
                if len(ks) > 1:
                    return None
                k = ks[0]
            edges[i].append((nrows + j, k))
            edges[nrows + j].append((i, k))
    label: list[int | None] = [None] * len(edges)
    for root in range(len(edges)):
        if label[root] is not None:
            continue
        label[root] = 0
        queue = [root]
        for node in queue:
            for other, k in edges[node]:
                want = _MUL[label[node]][k][0]
                if label[other] is None:
                    label[other] = want
                    queue.append(other)
                elif label[other] != want:
                    return None
    radicands = [RADICANDS[k] for k in label]
    return radicands[:nrows], radicands[nrows:]


# -- spec-surface wrappers ---------------------------------------------------

def scalar_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Dispatch exact field arithmetic by operation name."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def scalar_sign(a: Scalar) -> int:
    return a.sign()


def scalar_approx(a: Scalar, bits: int) -> tuple[Fraction, Fraction]:
    return a.approx(bits)


# -- parsing -----------------------------------------------------------------

# One term: sign, numerator, denominator, radical (longest names first),
# then the rest up to the next sign, which must be empty or one newline.
_TERM_RE = re.compile(
    r"([+-])(?:(\d+)(?:/(\d+))?)?(?:\*?r(10|15|30|2|3|5|6))?([^+-]*)"
)
_BARE_SIGN_RE = re.compile(r"[+-](?![^+-])")
# A rational value as exact_str() writes it: one term, then the zero tail.
_EXACT_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?" + re.escape(_ZERO_TAIL))


def parse_scalar(text: str) -> Scalar:
    """Parse the exact string grammar: rationals as num/den, radicals as rN.

    Accepts both the full eight-term form emitted by exact_str() and compact
    forms like "2", "1/3", "r2", "-3/2*r6", "1 - r2 + 1/2*r30".  One pass
    reads the terms, skipping each zero term such as exact_str()'s "0*r2";
    a rational value's exact_str() is read in one step.
    """
    m = _EXACT_RATIONAL_RE.fullmatch(text)
    if m:
        sign, p, q = m.groups()
        q = int(q or 1)
        # A zero denominator goes on to the term loop, which reports it.
        if q:
            p = int(p)
            return Scalar((-p if sign else p,) + _ZERO7, q)
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    s = s.replace("+-", "-")
    if s[0] not in "+-":
        s = "+" + s
    if _BARE_SIGN_RE.search(s):
        raise ValueError(f"cannot parse scalar literal {text!r}")
    # Each radical coordinate accumulates as an integer pair nums[i]/dens[i].
    nums, dens = [0] * 8, [1] * 8
    for m in _TERM_RE.finditer(s):
        sign, p, q, rad, rest = m.groups()
        if rest and rest != "\n" or not (p or rad):
            # The term as written: without the "+" that leads s.
            term = m.group()[1:] if sign == "+" else m.group()
            raise ValueError(f"bad term {term!r} in scalar literal {text!r}")
        if p == "0" and q is None:
            continue
        p, q = int(p or 1), int(q or 1)
        if not q:
            raise ValueError(f"zero denominator in scalar literal {text!r}")
        if sign == "-":
            p = -p
        idx = _INDEX[int(rad)] if rad else 0
        nums[idx], dens[idx] = nums[idx] * q + p * dens[idx], dens[idx] * q
    den = lcm(*dens)
    return Scalar([n * (den // d) for n, d in zip(nums, dens)], den)
