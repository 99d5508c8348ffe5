"""Rank-two root systems with exact rational inner products.

A root is an integer pair (m, n) standing for m*alpha + n*beta, where alpha
and beta are the two simple roots.  Each of the four families carries a fixed
Gram matrix for the invariant inner product, normalized so that alpha has
squared length 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Root = tuple[int, int]

#: family -> ordered positive roots (alpha first, beta second, then the rest
#: in the order used throughout for bases and labels).
_POSITIVE: dict[str, tuple[Root, ...]] = {
    "a2": ((1, 0), (0, 1), (1, 1)),
    "a1a1": ((1, 0), (0, 1)),
    "c2": ((1, 0), (0, 1), (1, 1), (1, 2)),
    "g2": ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
}

#: family -> ((alpha,alpha), (alpha,beta), (beta,beta)) as exact rationals.
_GRAM: dict[str, tuple[Fraction, Fraction, Fraction]] = {
    "a2": (Fraction(1), Fraction(-1, 2), Fraction(1)),
    "a1a1": (Fraction(1), Fraction(0), Fraction(1)),
    "c2": (Fraction(1), Fraction(-1, 2), Fraction(1, 2)),
    "g2": (Fraction(1), Fraction(-3, 2), Fraction(3)),
}

FAMILIES = tuple(_POSITIVE)


@dataclass(frozen=True)
class RootSystem:
    """An irreducible or reducible rank-two root system."""

    family: str
    positive_roots: tuple[Root, ...]
    gram: tuple[Fraction, Fraction, Fraction]

    @property
    def roots(self) -> tuple[Root, ...]:
        return self.positive_roots + tuple(
            (-m, -n) for (m, n) in self.positive_roots
        )

    def is_root(self, gamma: Root) -> bool:
        m, n = gamma
        return (m, n) in self.positive_roots or (-m, -n) in self.positive_roots

    def is_positive(self, gamma: Root) -> bool:
        return gamma in self.positive_roots

    def __str__(self) -> str:
        return f"RootSystem({self.family}, {len(self.roots)} roots)"


def build_root_system(family: str) -> RootSystem:
    """Construct one of the four rank-two systems: a2, a1a1, c2, g2."""
    key = family.lower().replace("x", "")
    if key not in _POSITIVE:
        raise ValueError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    return RootSystem(key, _POSITIVE[key], _GRAM[key])


@lru_cache(maxsize=None)
def inner(rs: RootSystem, gamma: Root, delta: Root) -> Fraction:
    """Exact inner product of two lattice vectors m*alpha + n*beta."""
    aa, ab, bb = rs.gram
    m, n = gamma
    p, q = delta
    return m * p * aa + (m * q + n * p) * ab + n * q * bb


@lru_cache(maxsize=None)
def cartan_int(rs: RootSystem, gamma: Root, delta: Root) -> int:
    """The Cartan integer 2*(gamma, delta) / (delta, delta).

    Integral whenever gamma is in the root lattice and delta is a root.
    """
    value = 2 * inner(rs, gamma, delta) / inner(rs, delta, delta)
    if value.denominator != 1:
        raise ValueError(
            f"2({gamma},{delta})/({delta},{delta}) = {value} is not an integer"
        )
    return value.numerator


def root_add(gamma: Root, delta: Root) -> Root:
    return (gamma[0] + delta[0], gamma[1] + delta[1])


def root_neg(gamma: Root) -> Root:
    return (-gamma[0], -gamma[1])


def root_sub(gamma: Root, delta: Root) -> Root:
    return (gamma[0] - delta[0], gamma[1] - delta[1])


def chain_down_length(rs: RootSystem, gamma: Root, delta: Root) -> int:
    """Largest k >= 0 with delta - k*gamma still a root (the back-length of
    the gamma-string through delta)."""
    k = 0
    cur = delta
    while True:
        nxt = root_sub(cur, gamma)
        if not rs.is_root(nxt):
            return k
        cur = nxt
        k += 1


def root_label(gamma: Root) -> str:
    """Human-readable label like 'a', 'b', 'a+b', '3a+2b', '-(a+b)'."""
    m, n = gamma
    if m == 0 and n == 0:
        return "0"
    if m < 0 or (m == 0 and n < 0):
        return f"-({root_label((-m, -n))})"
    parts = []
    if m:
        parts.append("a" if m == 1 else f"{m}a")
    if n:
        parts.append("b" if n == 1 else f"{n}b")
    return "+".join(parts)


def parse_root(text: str) -> Root:
    """Inverse of root_label for nonnegative-leading labels and '-(...)'."""
    s = text.strip().replace(" ", "")
    if s.startswith("-(") and s.endswith(")"):
        m, n = parse_root(s[2:-1])
        return (-m, -n)
    m = n = 0
    for term in s.split("+"):
        if not term:
            raise ValueError(f"bad root label {text!r}")
        if term.endswith("a"):
            coef = term[:-1]
            m += int(coef) if coef else 1
        elif term.endswith("b"):
            coef = term[:-1]
            n += int(coef) if coef else 1
        else:
            raise ValueError(f"bad root label {text!r}")
    return (m, n)
