"""Independently written h and m spans of the fourteen catalogue spaces.

The catalogue derives h from sl2 triples (or writes it down, for berger and
cp3) and computes m as the orthogonal complement of h.  The spans below are
worked out by hand from the root data instead, so comparing the two
catches a wrong triple, a wrong compactification or a wrong complement.
"""

from fractions import Fraction

from rank2go.chevalley import build_compact_form
from rank2go.embed import berger_algebra
from rank2go.field import SQRT2, SQRT3, SQRT6, SQRT10, scalar

A, B = (1, 0), (0, 1)


def _fg(cf, *roots):
    out = []
    for g in roots:
        out.append(cf.f_vector(g))
        out.append(cf.g_vector(g))
    return out


def _ih(cf, ca, cb):
    return cf.algebra.element({"iH[a]": ca, "iH[b]": cb})


def _pair(cf, label_a, ca, label_b, cb):
    """The two vectors ca*F[label_a] + cb*F[label_b] and the same with G."""
    return [
        cf.algebra.element({f"{kind}[{label_a}]": ca, f"{kind}[{label_b}]": cb})
        for kind in ("F", "G")
    ]


def _a2(row):
    cf = build_compact_form("a2")
    AB = (1, 1)
    if row == "a2.1":
        return cf, [_ih(cf, 1, 1)] + _fg(cf, AB), [_ih(cf, 1, -1)] + _fg(cf, A, B)
    h = _pair(cf, "a", 1, "b", 1) + [_ih(cf, 1, 1)]
    m = _pair(cf, "a", 1, "b", -1) + [_ih(cf, 1, -1)] + _fg(cf, AB)
    return cf, h, m


def _a1a1(row):
    cf = build_compact_form("a1a1")
    if row == "a1a1.1":
        return cf, [_ih(cf, 1, 0)] + _fg(cf, A), [_ih(cf, 0, 1)] + _fg(cf, B)
    if row == "a1a1.2":
        return cf, [_ih(cf, 0, 1)] + _fg(cf, B), [_ih(cf, 1, 0)] + _fg(cf, A)
    h = _pair(cf, "a", 1, "b", 1) + [_ih(cf, 1, 1)]
    m = _pair(cf, "a", 1, "b", -1) + [_ih(cf, 1, -1)]
    return cf, h, m


def _c2(row):
    cf = build_compact_form("c2")
    AB, A2B = (1, 1), (1, 2)
    if row == "c2.1":
        return cf, [_ih(cf, 1, 1)] + _fg(cf, A2B), [_ih(cf, 1, 0)] + _fg(cf, A, B, AB)
    if row == "c2.2":
        return cf, [_ih(cf, 2, 1)] + _fg(cf, AB), [_ih(cf, 0, 1)] + _fg(cf, A, B, A2B)
    h = _pair(cf, "a", scalar(2), "b", SQRT3) + [_ih(cf, 4, 3)]
    m = _pair(cf, "a", SQRT3, "b", -1) + [_ih(cf, 2, -1)] + _fg(cf, AB, A2B)
    return cf, h, m


def _g2(row):
    cf = build_compact_form("g2")
    AB, A2B1, A3B1, A3B2 = (1, 1), (2, 1), (3, 1), (3, 2)
    if row == "g2.1":
        # iH[3a+2b] has coroot coefficients (1, 2).
        m = [_ih(cf, 1, 2)] + _fg(cf, B, AB, A2B1, A3B1, A3B2)
        return cf, [_ih(cf, 1, 0)] + _fg(cf, A), m
    if row == "g2.2":
        # iH[2a+b] has coroot coefficients (2, 3).
        m = [_ih(cf, 2, 3)] + _fg(cf, A, AB, A2B1, A3B1, A3B2)
        return cf, [_ih(cf, 0, 1)] + _fg(cf, B), m
    L = cf.algebra
    if row == "g2.3":
        h = [
            L.element({"F[3a+2b]": SQRT2, "F[b]": -SQRT2}),
            L.element({"G[3a+2b]": SQRT2, "G[b]": SQRT2}),
            _ih(cf, 2, 2),  # 2 iH[3a+b]
        ]
        m = [
            L.element({"F[3a+2b]": SQRT2, "F[b]": SQRT2}),
            L.element({"G[3a+2b]": SQRT2, "G[b]": -SQRT2}),
            _ih(cf, 2, 6),  # 2 iH[a+b]
        ] + _fg(cf, A, AB, A2B1, A3B1)
        return cf, h, m
    h = _pair(cf, "a", SQRT6, "b", SQRT10) + [_ih(cf, 6, 10)]  # 14 iH[9a+5b]
    m = (
        _pair(cf, "a", SQRT10, "b", scalar(-3) * SQRT6)
        + [_ih(cf, Fraction(2, 7), Fraction(-6, 7))]  # 2 iH[a-b]
        + _fg(cf, AB, A2B1, A3B1, A3B2)
    )
    return cf, h, m


def declared_spans(space_id):
    """(algebra, h spanning vectors, m spanning vectors) for a catalogue id."""
    if space_id == "berger":
        L = berger_algebra()
        h = [L.element({"iH": 1, "Z": 1})]
        m = [L.element({"iH": 1, "Z": -1}), L.basis_vector("F"), L.basis_vector("G")]
        return L, h, m
    if space_id == "cp3":
        cf = build_compact_form("c2")
        h = [cf.algebra.basis_vector("iH[a]"), _ih(cf, 1, 1)] + _fg(cf, (1, 2))
        return cf.algebra, h, _fg(cf, A, B, (1, 1))
    family = space_id.split(".")[0]
    spans_for = {"a2": _a2, "a1a1": _a1a1, "c2": _c2, "g2": _g2}[family]
    cf, h, m = spans_for(space_id)
    return cf.algebra, h, m
