"""Integer structure constants for the rank-two algebras and their compact
real forms.

Constants N[gamma, delta] are fixed by a small seed table plus three exact
identities: antisymmetry, negation of both arguments, and the cyclic relation
tying the three constants of any root triangle gamma + delta + epsilon = 0 to
the squared root lengths.  The compact form is then assembled over the scalar
field on the basis

    iH[a], iH[b], F[gamma], G[gamma]   (gamma running over positive roots),

where F[gamma] and G[gamma] are the real and imaginary combinations of the
root vectors for gamma and -gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import ONE, ZERO, Scalar, scalar
from .liealg import LieAlgebra, Subspace, Vector
from .rootsys import (
    Root,
    RootSystem,
    build_root_system,
    cartan_int,
    chain_down_length,
    inner,
    parse_root,
    root_add,
    root_label,
    root_neg,
)

NTable = dict[tuple[Root, Root], int]

#: Seed constants per family, keyed by root labels.
_SEEDS: dict[str, dict[tuple[str, str], int]] = {
    "a2": {
        ("a", "b"): 1,
        ("b", "-(a+b)"): 1,
        ("-(a+b)", "a"): 1,
    },
    "a1a1": {},
    "c2": {
        ("a", "b"): 1,
        ("-(a+b)", "a"): 1,
        ("-(a+2b)", "a+b"): 1,
        ("b", "-(a+2b)"): 1,
        ("b", "-(a+b)"): 2,
        ("a+b", "b"): 2,
    },
    "g2": {
        ("b", "a"): 1,
        ("b", "3a+b"): 1,
        ("3a+b", "-(3a+2b)"): 1,
        ("2a+b", "-(3a+b)"): 1,
        ("2a+b", "-(3a+2b)"): 1,
        ("-(3a+2b)", "a+b"): 1,
        ("-(3a+2b)", "b"): 1,
        ("-(3a+b)", "a"): 1,
        ("-(a+b)", "b"): 1,
        ("a+b", "a"): 2,
        ("a", "-(2a+b)"): 2,
        ("-(2a+b)", "a+b"): 2,
        ("a", "2a+b"): 3,
        ("a", "-(a+b)"): 3,
        ("a+b", "2a+b"): 3,
    },
}


def _bracket_pairs(rs: RootSystem) -> list[tuple[Root, Root]]:
    """All ordered root pairs whose sum is again a root."""
    out = []
    for g in rs.roots:
        for d in rs.roots:
            if rs.is_root(root_add(g, d)):
                out.append((g, d))
    return out


def _propagate(
    rs: RootSystem, table: dict[tuple[Root, Root], Fraction],
    gamma: Root, delta: Root, value: Fraction,
) -> None:
    """Insert one constant and everything the identities force from it."""
    stack = [(gamma, delta, value)]
    while stack:
        g, d, v = stack.pop()
        key = (g, d)
        if key in table:
            if table[key] != v:
                raise ValueError(
                    f"inconsistent constants: N[{root_label(g)},{root_label(d)}]"
                    f" = {table[key]} vs {v}"
                )
            continue
        s = root_add(g, d)
        if not rs.is_root(s):
            raise ValueError(
                f"pair ({root_label(g)}, {root_label(d)}) does not sum to a root"
            )
        table[key] = v
        e = root_neg(s)
        stack.append((d, g, -v))
        stack.append((root_neg(g), root_neg(d), -v))
        # Cyclic relation for the triangle g + d + e = 0:
        # N[g,d]/(e,e) = N[d,e]/(g,g) = N[e,g]/(d,d).
        ee = inner(rs, e, e)
        stack.append((d, e, v * inner(rs, g, g) / ee))
        stack.append((e, g, v * inner(rs, d, d) / ee))


def complete_structure_constants(rs: RootSystem) -> NTable:
    """Extend the seed table of the family to all bracketable root pairs.

    Raises if the seeds do not determine every constant.
    """
    table: dict[tuple[Root, Root], Fraction] = {}
    for (lg, ld), v in _SEEDS[rs.family].items():
        _propagate(rs, table, parse_root(lg), parse_root(ld), Fraction(v))
    needed = _bracket_pairs(rs)
    missing = set(needed) - set(table)
    if missing:
        raise ValueError(f"seeds leave {len(missing)} constants undetermined")
    out: NTable = {}
    for key, v in table.items():
        if v.denominator != 1:
            raise ValueError(f"constant {key} is not an integer: {v}")
        out[key] = v.numerator
    validate_structure_constants(rs, out)
    return out


def validate_structure_constants(rs: RootSystem, table: NTable) -> None:
    """Check completeness, antisymmetry, negation, cyclic relation, and the
    root-string magnitude law |N[g,d]| = p + 1."""
    needed = _bracket_pairs(rs)
    for key in needed:
        if key not in table:
            raise ValueError(f"missing constant for {key}")
    for (g, d), v in table.items():
        if not isinstance(v, int):
            raise ValueError(f"constant {g},{d} is not an integer")
        if table[(d, g)] != -v:
            raise ValueError(f"antisymmetry fails at {g},{d}")
        if table[(root_neg(g), root_neg(d))] != -v:
            raise ValueError(f"negation rule fails at {g},{d}")
        p = chain_down_length(rs, g, d)
        if abs(v) != p + 1:
            raise ValueError(
                f"magnitude law fails at {g},{d}: |{v}| != {p + 1}"
            )
        e = root_neg(root_add(g, d))
        lhs = Fraction(v) / inner(rs, e, e)
        if lhs != Fraction(table[(d, e)]) / inner(rs, g, g):
            raise ValueError(f"cyclic relation fails at {g},{d}")
        if lhs != Fraction(table[(e, g)]) / inner(rs, d, d):
            raise ValueError(f"cyclic relation fails at {g},{d}")


# ---------------------------------------------------------------------------
# complex elements over the root-vector basis
# ---------------------------------------------------------------------------
#
# Keys: ("H", 0) and ("H", 1) for the two simple coroots, ("E", root) for the
# root vectors.  Values are (real, imaginary) pairs of numbers: ints and
# Fractions while the compact tables are built, Scalars once radicals enter.
# The functions below read either kind, with zero written as 0.

CKey = tuple
CElt = dict[CKey, tuple[Scalar, Scalar]]

_SIMPLE: tuple[Root, Root] = ((1, 0), (0, 1))


def _c_accumulate(out: CElt, key: CKey, re: Scalar, im: Scalar) -> None:
    cur = out.get(key, (0, 0))
    nre, nim = cur[0] + re, cur[1] + im
    if nre or nim:
        out[key] = (nre, nim)
    elif key in out:
        del out[key]


def c_add(x: CElt, y: CElt) -> CElt:
    out = dict(x)
    for k, (re, im) in y.items():
        _c_accumulate(out, k, re, im)
    return out


def c_scale(coeff: tuple[Scalar, Scalar], x: CElt) -> CElt:
    a, b = coeff
    out: CElt = {}
    for k, (re, im) in x.items():
        nre = a * re - b * im
        nim = a * im + b * re
        if nre or nim:
            out[k] = (nre, nim)
    return out


def complex_E(gamma: Root) -> CElt:
    return {("E", gamma): (ONE, ZERO)}


def coroot_coefficients(rs: RootSystem, vec: Root) -> tuple[Fraction, Fraction]:
    """Rational coefficients (c_a, c_b) with H[vec] = c_a H[a] + c_b H[b],
    valid for any nonzero lattice vector vec."""
    m, n = vec
    vv = inner(rs, vec, vec)
    if vv == 0:
        raise ValueError("zero lattice vector has no coroot")
    aa, _, bb = rs.gram
    return (Fraction(m) * aa / vv, Fraction(n) * bb / vv)


def complex_H(rs: RootSystem, vec: Root) -> CElt:
    ca, cb = coroot_coefficients(rs, vec)
    out: CElt = {}
    if ca:
        out[("H", 0)] = (scalar(ca), ZERO)
    if cb:
        out[("H", 1)] = (scalar(cb), ZERO)
    return out


def c_bracket(rs: RootSystem, table: NTable, x: CElt, y: CElt) -> CElt:
    out: CElt = {}
    for k1, (a1, b1) in x.items():
        for k2, (a2, b2) in y.items():
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
            if not (re or im):
                continue
            if k1[0] == "H" and k2[0] == "H":
                continue
            if k1[0] == "H" and k2[0] == "E":
                n = cartan_int(rs, k2[1], _SIMPLE[k1[1]])
                if n:
                    _c_accumulate(out, k2, n * re, n * im)
            elif k1[0] == "E" and k2[0] == "H":
                n = cartan_int(rs, k1[1], _SIMPLE[k2[1]])
                if n:
                    _c_accumulate(out, k1, -n * re, -n * im)
            else:
                g, d = k1[1], k2[1]
                s = root_add(g, d)
                if s == (0, 0):
                    ca, cb = coroot_coefficients(rs, g)
                    if ca:
                        _c_accumulate(out, ("H", 0), ca * re, ca * im)
                    if cb:
                        _c_accumulate(out, ("H", 1), cb * re, cb * im)
                elif rs.is_root(s):
                    n = table[(g, d)]
                    _c_accumulate(out, ("E", s), n * re, n * im)
    return out


# ---------------------------------------------------------------------------
# the compact real form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompactForm:
    """A compact rank-two algebra with its root data and constants."""

    family: str
    root_system: RootSystem
    constants: NTable
    algebra: LieAlgebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def collapse(self, z: CElt) -> Vector:
        """Coordinates of a complex element lying in the compact form."""
        coords = _coordinates(self.root_system, z)
        return tuple(coords.get(k, ZERO) for k in range(self.dim))

    def expand(self, v: Vector) -> CElt:
        """Complex expansion of a compact coordinate vector."""
        out: CElt = {}
        for c, lab in zip(v, self.algebra.labels):
            if c:
                out = c_add(out, c_scale((c, ZERO), _expansion(lab)))
        return out

    def ih_vector(self, vec: Root, coeff: Fraction | int = 1) -> Vector:
        """Compact coordinates of coeff * i * H[vec] for a lattice vector."""
        ca, cb = coroot_coefficients(self.root_system, vec)
        q = Fraction(coeff)
        v = [ZERO] * self.dim
        v[0] = scalar(ca * q)
        v[1] = scalar(cb * q)
        return tuple(v)

    def f_vector(self, gamma: Root) -> Vector:
        return self.algebra.basis_vector(f"F[{root_label(gamma)}]")

    def g_vector(self, gamma: Root) -> Vector:
        return self.algebra.basis_vector(f"G[{root_label(gamma)}]")

    def root_space(self, gamma: Root) -> Subspace:
        """The two-dimensional span of F[gamma] and G[gamma]."""
        return Subspace.from_vectors(
            self.dim, [self.f_vector(gamma), self.g_vector(gamma)]
        )

    def cartan_subspace(self) -> Subspace:
        return Subspace.from_vectors(
            self.dim,
            [self.algebra.basis_vector(0), self.algebra.basis_vector(1)],
        )


def _expansion(label: str) -> CElt:
    """Complex expansion of a compact basis element, with int parts."""
    if label.startswith("iH["):
        return {("H", 0 if label == "iH[a]" else 1): (0, 1)}
    gamma = parse_root(label[2:-1])
    if label.startswith("F["):
        return {("E", gamma): (1, 0), ("E", root_neg(gamma)): (-1, 0)}
    return {("E", gamma): (0, 1), ("E", root_neg(gamma)): (0, 1)}


def _coordinates(rs: RootSystem, z: CElt) -> dict:
    """The nonzero compact coordinates of a complex element, by index;
    raises ValueError unless the element lies in the compact form."""
    coords = {}
    seen: set[CKey] = set()
    for key, (re, im) in z.items():
        if key in seen:
            continue
        if key[0] == "H":
            if re:
                raise ValueError(
                    "element is not in the compact form: real H part"
                )
            coords[key[1]] = im
            continue
        gamma = key[1]
        pos = gamma if rs.is_positive(gamma) else root_neg(gamma)
        kplus, kminus = ("E", pos), ("E", root_neg(pos))
        aplus, bplus = z.get(kplus, (0, 0))
        aminus, bminus = z.get(kminus, (0, 0))
        if aminus != -aplus or bminus != bplus:
            raise ValueError(
                "element is not in the compact form: root pair mismatch"
            )
        t = 2 + 2 * rs.positive_roots.index(pos)
        if aplus:
            coords[t] = aplus
        if bplus:
            coords[t + 1] = bplus
        seen.add(kplus)
        seen.add(kminus)
    return coords


def _compact_labels(rs: RootSystem) -> list[str]:
    labels = ["iH[a]", "iH[b]"]
    for g in rs.positive_roots:
        lab = root_label(g)
        labels.append(f"F[{lab}]")
        labels.append(f"G[{lab}]")
    return labels


def _q_form(rs: RootSystem, n: int) -> list[list[Fraction | int]]:
    """The normalized invariant form: block diagonal, with
    q(iH[g], iH[d]) = -4 (g,d) / ((g,g)(d,d)) on the torus part and
    q(F[g], F[g]) = q(G[g], G[g]) = -4/(g,g) on the root part."""
    form: list[list[Fraction | int]] = [[0] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            gi, gj = _SIMPLE[i], _SIMPLE[j]
            form[i][j] = Fraction(-4) * inner(rs, gi, gj) / (
                inner(rs, gi, gi) * inner(rs, gj, gj)
            )
    for t, g in enumerate(rs.positive_roots):
        val = Fraction(-4) / inner(rs, g, g)
        form[2 + 2 * t][2 + 2 * t] = val
        form[3 + 2 * t][3 + 2 * t] = val
    return form


def _trace_scale(
    rows: list[list[dict]], form: list[list[Fraction | int]], labels: list[str]
) -> Fraction:
    """The rational ratio of the trace form to the stored form.

    rows[i][l] holds the nonzero coordinates {k: c_il^k} of [e_i, e_l], so
    tr(ad e_i . ad e_j) = sum over l, k of c_il^k c_jk^l.  Raises
    ArithmeticError unless the two forms agree up to one positive rational.
    """
    n = len(rows)
    trace = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rj = rows[j]
            t = 0
            for l, cell in enumerate(rows[i]):
                for k, c in cell.items():
                    d = rj[k].get(l)
                    if d:
                        t += c * d
            trace[i][j] = trace[j][i] = t
    ratio = trace[0][0] / form[0][0]  # form[0][0] is never zero
    if not isinstance(ratio, Fraction):
        raise ArithmeticError("trace/form ratio is irrational")
    if ratio <= 0:
        raise ArithmeticError("trace/form ratio is not positive")
    for i in range(n):
        for j in range(n):
            if trace[i][j] != ratio * form[i][j]:
                raise ArithmeticError(
                    f"trace form deviates from the stored form at "
                    f"({labels[i]}, {labels[j]})"
                )
    return ratio


@lru_cache(maxsize=None)
def build_compact_form(family: str) -> CompactForm:
    """Build the compact real form of the family as an exact algebra.

    The structure constants are rational, so the table is computed on ints
    and Fractions, for i < j only, and checked there: the trace form must
    agree with the stored invariant form up to one positive rational
    factor, which is kept as the algebra's killing_scale.  Every spelling
    of a family ("G2", "a1xa1") returns the one cached form.
    """
    rs = build_root_system(family)
    if family != rs.family:
        return build_compact_form(rs.family)
    constants = complete_structure_constants(rs)
    labels = _compact_labels(rs)
    n = len(labels)
    expansions = [_expansion(lab) for lab in labels]
    rows: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = c_bracket(rs, constants, expansions[i], expansions[j])
            rows[i][j] = _coordinates(rs, z)
            rows[j][i] = {k: -c for k, c in rows[i][j].items()}
    form = _q_form(rs, n)
    scale = _trace_scale(rows, form, labels)

    scalars: dict = {0: ZERO}  # one Scalar per distinct value

    def lift(x) -> Scalar:
        s = scalars.get(x)
        if s is None:
            s = scalars[x] = scalar(x)
        return s

    table = tuple(
        tuple(tuple((k, lift(c)) for k, c in sorted(cell.items())) for cell in row)
        for row in rows
    )
    form_rows = tuple(tuple(map(lift, row)) for row in form)
    algebra = LieAlgebra(
        f"{rs.family}-compact", tuple(labels), table, form_rows, scale
    )
    return CompactForm(rs.family, rs, constants, algebra)


def summary_dict(cf: CompactForm) -> dict:
    """JSON-ready description: dimensions, labels, constants, form data."""
    constants = {
        f"N[{root_label(g)},{root_label(d)}]": v
        for (g, d), v in sorted(cf.constants.items())
    }
    diag = {
        lab: str(cf.algebra.form[i][i])
        for i, lab in enumerate(cf.algebra.labels)
    }
    return {
        "family": cf.family,
        "dimension": cf.dim,
        "rank": 2,
        "positive_roots": [root_label(g) for g in cf.root_system.positive_roots],
        "basis": list(cf.algebra.labels),
        "killing_scale": str(cf.algebra.killing_scale),
        "structure_constants": constants,
        "form_diagonal": diag,
    }
