"""The catalogue of homogeneous spaces built from subalgebra embeddings.

Each catalogued space is a pair (g, h): a compact rank-two algebra g and a
subalgebra h, with the reductive complement m of h under the invariant form.
One table, `_CATALOG`, holds each space's id (in report order), description,
family of g, a spec for h and the paper's verdict on it, which `classify`
checks through `EXPECTED_VERDICTS`.  A row names no subalgebra: the Hopf
fiber and the normalizer of h are read off the isotypic decomposition
(gocheck.fibration_metric), and `named_subalgebra` resolves the one other
name of the metric grammar, "sp1sp1".  The twelve su(2)-embedding rows
give h as the compact image of an sl2 span; cp3, the twistor space of the
four-sphere, as a torus plus root spaces; berger, the squashed
three-sphere, as one element of u(2).  m is always the orthogonal
complement of h; the test suite cross-checks every h and m against
independently written spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .chevalley import (
    CElt,
    CompactForm,
    build_compact_form,
    c_add,
    c_bracket,
    c_scale,
)
from .field import ONE, SQRT2, SQRT6, SQRT10, ZERO, Scalar, scalar
from .liealg import (
    LieAlgebra,
    Matrix,
    Subspace,
    Vector,
    abelian,
    ad_on,
    direct_sum,
    orth_complement,
    su2,
    subalgebra_generators,
    vec_scale,
)
from .rootsys import Root, root_neg


class _Sl2(NamedTuple):
    e: tuple[tuple[Scalar | int, Root], ...]  # (coefficient, root) parts
    f: tuple[tuple[Scalar | int, Root], ...]
    h: tuple[int, int]  # coefficients of H[a] and H[b]


class _Torus(NamedTuple):
    coroots: tuple[tuple[int, int], ...]  # iH[a], iH[b] coefficients
    roots: tuple[Root, ...]  # each adds its root space F[g], G[g]


class _Row(NamedTuple):
    description: str
    family: str  # of the compact form, or "u2" for berger_algebra()
    h: _Sl2 | _Torus | dict  # a dict is one element of u(2), by label
    verdict: str  # the paper's, as classify reports it


#: The four verdicts of classify, as the catalogue rows record them.
LIE_GROUP_CASE = "lie_group_case"
ISOTROPY_IRREDUCIBLE = "isotropy_irreducible"
ALL_METRICS_NORMAL = "all_metrics_normal"
NONNORMAL_GO_FAMILY = "nonnormal_go_family"

_A, _B, _NA, _NB = (1, 0), (0, 1), (-1, 0), (0, -1)

#: One row per catalogued space, in report order.
_CATALOG: dict[str, _Row] = {
    "a2.1": _Row("5-sphere as SU(3)/SU(2)", "a2",
                 _Sl2(((1, (1, 1)),), ((1, (-1, -1)),), (1, 1)), NONNORMAL_GO_FAMILY),
    "a2.2": _Row("SU(3)/SO(3), isotropy irreducible", "a2",
                 _Sl2(((1, _A), (1, _B)), ((1, _NA), (1, _NB)), (1, 1)),
                 ISOTROPY_IRREDUCIBLE),
    "a1a1.1": _Row("3-sphere as (SU(2)xSU(2))/(SU(2)x{1}), group case", "a1a1",
                   _Sl2(((1, _A),), ((1, _NA),), (1, 0)), LIE_GROUP_CASE),
    "a1a1.2": _Row("3-sphere as (SU(2)xSU(2))/({1}xSU(2)), group case", "a1a1",
                   _Sl2(((1, _B),), ((1, _NB),), (0, 1)), LIE_GROUP_CASE),
    "a1a1.3": _Row("3-sphere as (SU(2)xSU(2))/diagonal, symmetric", "a1a1",
                   _Sl2(((1, _A), (1, _B)), ((1, _NA), (1, _NB)), (1, 1)),
                   ISOTROPY_IRREDUCIBLE),
    "c2.1": _Row("7-sphere as Sp(2)/Sp(1)", "c2",
                 _Sl2(((1, (1, 2)),), ((1, (-1, -2)),), (1, 1)), NONNORMAL_GO_FAMILY),
    "c2.2": _Row("Sp(2)/Sp(1) with the short-root Sp(1)", "c2",
                 _Sl2(((1, (1, 1)),), ((1, (-1, -1)),), (2, 1)), ALL_METRICS_NORMAL),
    "c2.3": _Row("Sp(2)/Sp(1), isotropy irreducible", "c2",
                 _Sl2(((1, _A), (1, _B)), ((4, _NA), (3, _NB)), (4, 3)),
                 ISOTROPY_IRREDUCIBLE),
    "g2.1": _Row("G2/SU(2) on the short simple root", "g2",
                 _Sl2(((1, _A),), ((1, _NA),), (1, 0)), ALL_METRICS_NORMAL),
    "g2.2": _Row("G2/SU(2) on the long simple root", "g2",
                 _Sl2(((1, _B),), ((1, _NB),), (0, 1)), ALL_METRICS_NORMAL),
    "g2.3": _Row("G2/SU(2) with index-4 embedding", "g2",  # h = 2 H[3a+b]
                 _Sl2(((SQRT2, (3, 2)), (SQRT2, _NB)),
                      ((SQRT2, _B), (SQRT2, (-3, -2))), (2, 2)), ALL_METRICS_NORMAL),
    "g2.4": _Row("G2/SU(2), isotropy irreducible", "g2",  # h = 14 H[9a+5b]
                 _Sl2(((SQRT6, _A), (SQRT10, _B)),
                      ((SQRT6, _NA), (SQRT10, _NB)), (6, 10)), ISOTROPY_IRREDUCIBLE),
    "berger": _Row("3-sphere as U(2)/U(1), squashed metrics", "u2",
                   {"iH": 1, "Z": 1}, NONNORMAL_GO_FAMILY),
    # iH[a], iH[a+2b] and the root space of a+2b
    "cp3": _Row("CP^3 as Sp(2)/(U(1)xSp(1)), twistor space of S^4", "c2",
                _Torus(((1, 0), (1, 1)), ((1, 2),)), NONNORMAL_GO_FAMILY),
}

#: All catalogue identifiers, in table order.
CATALOG_IDS: tuple[str, ...] = tuple(_CATALOG)

#: The paper's verdict on each catalogued space, as classify reports it.
EXPECTED_VERDICTS: dict[str, str] = {i: row.verdict for i, row in _CATALOG.items()}

#: The twelve su(2)-embedding rows, in table order; row n is ROW_IDS[n - 1].
ROW_IDS: tuple[str, ...] = tuple(i for i, row in _CATALOG.items()
                                 if isinstance(row.h, _Sl2))


@dataclass(frozen=True)
class CatalogSpace:
    """A homogeneous space presented as (algebra, subalgebra, complement).

    derived holds the data built once per space (isotypic.per_space)."""

    space_id: str
    description: str
    algebra: LieAlgebra
    h: Subspace
    m: Subspace
    generators: tuple[int, ...]  # indices of rows of h that generate it
    h_action: tuple[Matrix, ...] = field(compare=False, repr=False)  # ad(h_i)|_m
    compact: CompactForm | None = None
    derived: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def dim_h(self) -> int:
        return self.h.dim

    @property
    def dim_m(self) -> int:
        return self.m.dim


# ---------------------------------------------------------------------------
# catalogued spaces
# ---------------------------------------------------------------------------

def berger_algebra() -> LieAlgebra:
    """u(2) = su(2) + center, with the center normalized like a root space."""
    return direct_sum("u2", su2(), abelian(("Z",), (-4,)))


def _torus_span(cf: CompactForm, spec: _Torus) -> list[Vector]:
    vecs = [cf.algebra.element({"iH[a]": ca, "iH[b]": cb}) for ca, cb in spec.coroots]
    for g in spec.roots:
        vecs += [cf.f_vector(g), cf.g_vector(g)]
    return vecs


@lru_cache(maxsize=None)
def catalog_space(space_id: str) -> CatalogSpace:
    """Build (and fully validate) a catalogued space by identifier.  The
    check that h is a subalgebra finds generators of h, and the check that
    [h, m] lies in m computes each ad(h_i)|_m: the space keeps both."""
    row = _CATALOG.get(space_id)
    if row is None:
        raise ValueError(
            f"unknown space id {space_id!r}; expected one of {', '.join(CATALOG_IDS)}"
        )
    compact = None if row.family == "u2" else build_compact_form(row.family)
    L = berger_algebra() if compact is None else compact.algebra
    if isinstance(row.h, _Sl2):
        h_vecs = compactify_sl2_triple(compact, *_sl2_span(row.h))
    elif isinstance(row.h, _Torus):
        h_vecs = _torus_span(compact, row.h)
    else:
        h_vecs = [L.element(row.h)]

    h = Subspace.from_vectors(L.dim, h_vecs)
    gens, closure = subalgebra_generators(L, h.rows)
    if closure != h:
        raise ArithmeticError(f"{space_id}: the declared h is not a subalgebra")
    m = orth_complement(L, h)
    if h.dim + m.dim != L.dim or not h.intersection(m).is_zero():
        raise ArithmeticError(f"{space_id}: h and m do not decompose the algebra")
    try:  # m.coords raises on a bracket outside m
        action = tuple(ad_on(L, a, m) for a in h.rows)
    except ValueError:
        raise ArithmeticError(f"{space_id}: [h, m] leaves m") from None
    return CatalogSpace(space_id, row.description, L, h, m, gens, action, compact)


def su2_embedding_space(row: int) -> CatalogSpace:
    """The catalogued space of table row 1..12 (su(2) embeddings only)."""
    if not 1 <= row <= len(ROW_IDS):
        raise ValueError(f"row must be 1..{len(ROW_IDS)}")
    return catalog_space(ROW_IDS[row - 1])


# ---------------------------------------------------------------------------
# sl2 triples and their compact images
# ---------------------------------------------------------------------------

def _sl2_span(spec: _Sl2) -> tuple[CElt, CElt, CElt]:
    e, f = ({("E", g): (scalar(c), ZERO) for c, g in ps} for ps in (spec.e, spec.f))
    h = {("H", i): (scalar(c), ZERO) for i, c in enumerate(spec.h) if c}
    return e, f, h


def sl2_triple_for_row(row: int) -> tuple[CompactForm, CElt, CElt, CElt]:
    """The classified sl2 spans (e, f, h) over the root-vector basis."""
    if not 1 <= row <= len(ROW_IDS):
        raise ValueError(f"row must be 1..{len(ROW_IDS)}, got {row}")
    entry = _CATALOG[ROW_IDS[row - 1]]
    return (build_compact_form(entry.family), *_sl2_span(entry.h))


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
# named intermediate subalgebras
# ---------------------------------------------------------------------------

#: The rank-two regular subalgebra on the two long roots of c2.
_SP1SP1 = _Torus(((1, 0), (1, 1)), ((1, 0), (1, 2)))


def named_subalgebra(space: CatalogSpace, name: str) -> Subspace:
    """Resolve an intermediate subalgebra h < K < g by name.

    The one name is "sp1sp1", the long-root regular subalgebra, on the
    c2-based spaces whose h it contains.  The Hopf fiber "hopf" and the
    normalizer "ngh" are no names here: gocheck.fibration_metric reads both
    off the isotypic decomposition.
    """
    if name != "sp1sp1":
        raise ValueError(f"unknown subalgebra name {name!r}")
    if space.compact is None or space.compact.family != "c2":
        raise ValueError("sp1sp1 lives in the c2 family only")
    K = Subspace.from_vectors(space.algebra.dim, _torus_span(space.compact, _SP1SP1))
    if not K.contains_subspace(space.h):
        raise ValueError(f"sp1sp1 does not contain h for space {space.space_id}")
    return K
