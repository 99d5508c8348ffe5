"""The catalogue of homogeneous spaces built from subalgebra embeddings.

Each catalogued space is a pair (g, h): a compact rank-two algebra g and a
subalgebra h, together with the reductive complement m of h under the
invariant form.  Twelve spaces come from the classified su(2) embeddings in
the four rank-two families: each h is the compact image of the row's sl2
triple.  Two more are the squashed three-sphere over u(2) and the
six-dimensional complement realizing the twistor space of the four-sphere,
whose subalgebras are written down directly.  The complement m is always
computed as the orthogonal complement of h; the test suite cross-checks
every h and m against independently written spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chevalley import (
    CElt,
    CompactForm,
    build_compact_form,
    c_add,
    c_bracket,
    c_scale,
    complex_E,
)
from .field import ONE, SQRT2, SQRT6, SQRT10, ZERO, Scalar, scalar
from .liealg import (
    LieAlgebra,
    Subspace,
    Vector,
    abelian,
    direct_sum,
    normalizer,
    orth_complement,
    su2,
    subalgebra_closure,
    vec_scale,
)
from .rootsys import Root, root_neg

#: Catalogue identifiers for the twelve su(2)-embedding rows, in table order.
ROW_IDS: tuple[str, ...] = (
    "a2.1", "a2.2",
    "a1a1.1", "a1a1.2", "a1a1.3",
    "c2.1", "c2.2", "c2.3",
    "g2.1", "g2.2", "g2.3", "g2.4",
)

#: All catalogue identifiers.
CATALOG_IDS: tuple[str, ...] = ROW_IDS + ("berger", "cp3")


@dataclass(frozen=True)
class CatalogSpace:
    """A homogeneous space presented as (algebra, subalgebra, complement)."""

    space_id: str
    description: str
    algebra: LieAlgebra
    h: Subspace
    m: Subspace
    compact: CompactForm | None = None

    @property
    def dim_h(self) -> int:
        return self.h.dim

    @property
    def dim_m(self) -> int:
        return self.m.dim


# ---------------------------------------------------------------------------
# catalogued spaces
# ---------------------------------------------------------------------------

def _fg(cf: CompactForm, *roots: Root) -> list[Vector]:
    out = []
    for g in roots:
        out.append(cf.f_vector(g))
        out.append(cf.g_vector(g))
    return out


def _ih(cf: CompactForm, ca, cb) -> Vector:
    return cf.algebra.element({"iH[a]": scalar(ca), "iH[b]": scalar(cb)})


_DESCRIPTIONS = {
    "a2.1": "5-sphere as SU(3)/SU(2)",
    "a2.2": "SU(3)/SO(3), isotropy irreducible",
    "a1a1.1": "3-sphere as (SU(2)xSU(2))/(SU(2)x{1}), group case",
    "a1a1.2": "3-sphere as (SU(2)xSU(2))/({1}xSU(2)), group case",
    "a1a1.3": "3-sphere as (SU(2)xSU(2))/diagonal, symmetric",
    "c2.1": "7-sphere as Sp(2)/Sp(1)",
    "c2.2": "Sp(2)/Sp(1) with the short-root Sp(1)",
    "c2.3": "Sp(2)/Sp(1), isotropy irreducible",
    "g2.1": "G2/SU(2) on the short simple root",
    "g2.2": "G2/SU(2) on the long simple root",
    "g2.3": "G2/SU(2) with index-4 embedding",
    "g2.4": "G2/SU(2), isotropy irreducible",
    "berger": "3-sphere as U(2)/U(1), squashed metrics",
    "cp3": "CP^3 as Sp(2)/(U(1)xSp(1)), twistor space of S^4",
}


def berger_algebra() -> LieAlgebra:
    """u(2) = su(2) + center, with the center normalized like a root space."""
    return direct_sum("u2", su2(), abelian(("Z",), (-4,)))


def _build_space(space_id: str) -> CatalogSpace:
    if space_id in ROW_IDS:
        triple = sl2_triple_for_row(ROW_IDS.index(space_id) + 1)
        compact = triple[0]
        L = compact.algebra
        h_vecs = compactify_sl2_triple(*triple)
    elif space_id == "berger":
        L = berger_algebra()
        h_vecs = [L.element({"iH": 1, "Z": 1})]
        compact = None
    elif space_id == "cp3":
        compact = build_compact_form("c2")
        L = compact.algebra
        h_vecs = [
            L.basis_vector("iH[a]"),
            _ih(compact, 1, 1),  # iH[a+2b]
        ] + _fg(compact, (1, 2))
    else:
        raise ValueError(
            f"unknown space id {space_id!r}; expected one of {', '.join(CATALOG_IDS)}"
        )

    h = Subspace.from_vectors(L.dim, h_vecs)
    if subalgebra_closure(L, h.rows) != h:
        raise ArithmeticError(f"{space_id}: the declared h is not a subalgebra")
    m = orth_complement(L, h)
    if h.dim + m.dim != L.dim or not h.intersection(m).is_zero():
        raise ArithmeticError(f"{space_id}: h and m do not decompose the algebra")
    for a in h.rows:
        for x in m.rows:
            if not m.contains(L.bracket(a, x)):
                raise ArithmeticError(f"{space_id}: [h, m] leaves m")
    return CatalogSpace(
        space_id=space_id,
        description=_DESCRIPTIONS[space_id],
        algebra=L,
        h=h,
        m=m,
        compact=compact,
    )


@lru_cache(maxsize=None)
def catalog_space(space_id: str) -> CatalogSpace:
    """Build (and fully validate) a catalogued space by identifier."""
    return _build_space(space_id)


def su2_embedding_space(row: int) -> CatalogSpace:
    """The catalogued space of table row 1..12 (su(2) embeddings only)."""
    if not 1 <= row <= len(ROW_IDS):
        raise ValueError(f"row must be 1..{len(ROW_IDS)}")
    return catalog_space(ROW_IDS[row - 1])


# ---------------------------------------------------------------------------
# sl2 triples and their compact images
# ---------------------------------------------------------------------------

def _c_H(ca, cb) -> CElt:
    out: CElt = {}
    if scalar(ca):
        out[("H", 0)] = (scalar(ca), ZERO)
    if scalar(cb):
        out[("H", 1)] = (scalar(cb), ZERO)
    return out


def _c_E_sum(parts: list[tuple[Scalar, Root]]) -> CElt:
    out: CElt = {}
    for c, g in parts:
        out = c_add(out, c_scale((c, ZERO), complex_E(g)))
    return out


def sl2_triple_for_row(row: int) -> tuple[CompactForm, CElt, CElt, CElt]:
    """The classified sl2 spans (e, f, h) over the root-vector basis."""
    A, B = (1, 0), (0, 1)
    if row == 1:
        cf = build_compact_form("a2")
        return (
            cf,
            _c_E_sum([(ONE, (1, 1))]),
            _c_E_sum([(ONE, (-1, -1))]),
            _c_H(1, 1),
        )
    if row == 2:
        cf = build_compact_form("a2")
        return (
            cf,
            _c_E_sum([(ONE, A), (ONE, B)]),
            _c_E_sum([(ONE, (-1, 0)), (ONE, (0, -1))]),
            _c_H(1, 1),
        )
    if row in (3, 4, 5):
        cf = build_compact_form("a1a1")
        if row == 3:
            return cf, _c_E_sum([(ONE, A)]), _c_E_sum([(ONE, (-1, 0))]), _c_H(1, 0)
        if row == 4:
            return cf, _c_E_sum([(ONE, B)]), _c_E_sum([(ONE, (0, -1))]), _c_H(0, 1)
        return (
            cf,
            _c_E_sum([(ONE, A), (ONE, B)]),
            _c_E_sum([(ONE, (-1, 0)), (ONE, (0, -1))]),
            _c_H(1, 1),
        )
    if row in (6, 7, 8):
        cf = build_compact_form("c2")
        if row == 6:
            return (
                cf,
                _c_E_sum([(ONE, (1, 2))]),
                _c_E_sum([(ONE, (-1, -2))]),
                _c_H(1, 1),
            )
        if row == 7:
            return (
                cf,
                _c_E_sum([(ONE, (1, 1))]),
                _c_E_sum([(ONE, (-1, -1))]),
                _c_H(2, 1),
            )
        return (
            cf,
            _c_E_sum([(ONE, A), (ONE, B)]),
            _c_E_sum([(scalar(4), (-1, 0)), (scalar(3), (0, -1))]),
            _c_H(4, 3),
        )
    cf = build_compact_form("g2")
    if row == 9:
        return cf, _c_E_sum([(ONE, A)]), _c_E_sum([(ONE, (-1, 0))]), _c_H(1, 0)
    if row == 10:
        return cf, _c_E_sum([(ONE, B)]), _c_E_sum([(ONE, (0, -1))]), _c_H(0, 1)
    if row == 11:
        return (
            cf,
            _c_E_sum([(SQRT2, (3, 2)), (SQRT2, (0, -1))]),
            _c_E_sum([(SQRT2, (0, 1)), (SQRT2, (-3, -2))]),
            _c_H(2, 2),  # 2 H[3a+b]
        )
    if row == 12:
        return (
            cf,
            _c_E_sum([(SQRT6, A), (SQRT10, B)]),
            _c_E_sum([(SQRT6, (-1, 0)), (SQRT10, (0, -1))]),
            _c_H(6, 10),  # 14 H[9a+5b]
        )
    raise ValueError(f"row must be 1..12, got {row}")


def _c_proportionality(y: CElt, x: CElt) -> tuple[Scalar, Scalar]:
    """The complex factor c with y = c * x; raises if there is none."""
    if not x:
        raise ValueError("cannot divide by the zero element")
    key = next(iter(sorted(x, key=repr)))
    a, b = x[key]
    c, d = y.get(key, (ZERO, ZERO))
    denom = a * a + b * b
    re = (c * a + d * b) / denom
    im = (d * a - c * b) / denom
    if c_scale((re, im), x) != y:
        raise ValueError("elements are not proportional")
    return (re, im)


def compactify_sl2_triple(
    cf: CompactForm, e: CElt, f: CElt, h: CElt
) -> tuple[Vector, Vector, Vector]:
    """Turn an sl2 span (e, f, h) into an exactly balanced compact triple.

    The input only needs to span an sl2: h is rescaled so that ad(h) has
    eigenvalue 2 on e, f is rescaled so that [e, f] = h, and then e and f are
    balanced root by root through exact geometric means so that the real
    combinations u = e - f, v = i(e + f), w = i h land in the compact form.
    Returns (u, v, w) with [w, u] = 2v, [w, v] = -2u, [u, v] = 2w.
    """
    rs, nt = cf.root_system, cf.constants

    for key in e:
        if key[0] != "E":
            raise ValueError("e must be supported on root vectors")

    lam = _c_proportionality(c_bracket(rs, nt, h, e), e)
    if lam == (ZERO, ZERO):
        raise ValueError("h does not move e")
    if lam[1] or not lam[0]:
        raise ValueError("the h-eigenvalue on e must be real and nonzero")
    h = c_scale((scalar(2) / lam[0], ZERO), h)

    minus2f = _c_proportionality(c_bracket(rs, nt, h, f), f)
    if minus2f != (scalar(-2), ZERO):
        raise ValueError("f is not an eigenvalue -2 vector for the rescaled h")

    factor = _c_proportionality(c_bracket(rs, nt, e, f), h)
    if factor[1] or not factor[0]:
        raise ValueError("[e, f] must be a real nonzero multiple of h")
    f = c_scale((ONE / factor[0], ZERO), f)

    support = sorted((key[1] for key in e), key=repr)
    f_support = sorted((key[1] for key in f), key=repr)
    if sorted((root_neg(g) for g in f_support), key=repr) != support:
        raise ValueError("f must be supported on the negatives of e's roots")

    balanced_e: CElt = {}
    balanced_f: CElt = {}
    for g in support:
        ce_re, ce_im = e[("E", g)]
        cfr, cfi = f[("E", root_neg(g))]
        if ce_im or cfi:
            raise ValueError("balancing requires real coefficients")
        prod = ce_re * cfr
        if not prod.is_rational:
            raise ValueError("balancing requires rational coefficient products")
        w_g = prod.sqrt()
        balanced_e[("E", g)] = (w_g, ZERO)
        balanced_f[("E", root_neg(g))] = (w_g, ZERO)

    if c_bracket(rs, nt, balanced_e, balanced_f) != h:
        raise ArithmeticError("balanced pair no longer brackets to h")
    if c_bracket(rs, nt, h, balanced_e) != c_scale((scalar(2), ZERO), balanced_e):
        raise ArithmeticError("balanced e is no longer an eigenvalue 2 vector")

    u = cf.collapse(c_add(balanced_e, c_scale((-ONE, ZERO), balanced_f)))
    v = cf.collapse(c_scale((ZERO, ONE), c_add(balanced_e, balanced_f)))
    w = cf.collapse(c_scale((ZERO, ONE), h))

    L = cf.algebra
    if L.bracket(w, u) != vec_scale(2, v):
        raise ArithmeticError("compact triple fails [w, u] = 2v")
    if L.bracket(w, v) != vec_scale(-2, u):
        raise ArithmeticError("compact triple fails [w, v] = -2u")
    if L.bracket(u, v) != vec_scale(2, w):
        raise ArithmeticError("compact triple fails [u, v] = 2w")
    return u, v, w


# ---------------------------------------------------------------------------
# named intermediate subalgebras and fibrations
# ---------------------------------------------------------------------------

def _sp1sp1(cf: CompactForm) -> Subspace:
    """The rank-two regular subalgebra on the two long roots of c2."""
    L = cf.algebra
    vecs = [_ih(cf, 1, 0)] + _fg(cf, (1, 0)) + [_ih(cf, 1, 1)] + _fg(cf, (1, 2))
    return Subspace.from_vectors(L.dim, vecs)


#: space id -> which named subalgebras make sense there.
_HOPF_ALIAS = {"a2.1": "ngh", "c2.1": "ngh", "berger": "ngh", "cp3": "sp1sp1"}


def named_subalgebra(space: CatalogSpace, name: str) -> Subspace:
    """Resolve an intermediate subalgebra h < K < g by name.

    Names: "ngh" (normalizer of h, available everywhere it is proper),
    "sp1sp1" (the long-root regular subalgebra, c2-based spaces only),
    "hopf" (the canonical fibration subalgebra of the four fibered spaces).
    """
    if name == "hopf":
        alias = _HOPF_ALIAS.get(space.space_id)
        if alias is None:
            raise ValueError(
                f"space {space.space_id} has no canonical fibration subalgebra"
            )
        return named_subalgebra(space, alias)
    if name == "ngh":
        K = normalizer(space.algebra, space.h)
        if K.dim == space.h.dim or K.dim == space.algebra.dim:
            raise ValueError(
                f"normalizer of h is not a proper intermediate subalgebra "
                f"for {space.space_id}"
            )
        return K
    if name == "sp1sp1":
        if space.compact is None or space.compact.family != "c2":
            raise ValueError("sp1sp1 lives in the c2 family only")
        K = _sp1sp1(space.compact)
        if not K.contains_subspace(space.h):
            raise ValueError(
                f"sp1sp1 does not contain h for space {space.space_id}"
            )
        return K
    raise ValueError(f"unknown subalgebra name {name!r}")


def fibration_split(
    space: CatalogSpace, K: Subspace
) -> tuple[Subspace, Subspace]:
    """Split m into fiber and base directions for h < K < g.

    Returns (M_F, M_B) with M_F = K intersect m and M_B its orthogonal
    complement in m.  Verifies that K is a subalgebra containing h and that
    dimensions add up.
    """
    L = space.algebra
    if not K.contains_subspace(space.h):
        raise ValueError("K does not contain h")
    if subalgebra_closure(L, K.rows) != K:
        raise ValueError("K is not a subalgebra")
    M_F = K.intersection(space.m)
    M_B = orth_complement(L, M_F, within=space.m)
    if M_F.dim + M_B.dim != space.m.dim:
        raise ArithmeticError("fiber and base do not decompose m")
    if M_F.dim != K.dim - space.h.dim:
        raise ArithmeticError("fiber dimension mismatch against K")
    return M_F, M_B
