"""Tests for the catalogued spaces, sl2 compactification, and fibrations."""

from fractions import Fraction

import pytest

from catalog_spans import declared_spans
from rank2go.cli import EXPECTED_VERDICTS
from rank2go.chevalley import build_compact_form, c_bracket, c_scale, complex_E
from rank2go import embed, gocheck
from rank2go.embed import (
    CATALOG_IDS,
    ROW_IDS,
    catalog_space,
    compactify_sl2_triple,
    named_subalgebra,
    sl2_triple_for_row,
    su2_embedding_space,
)
from rank2go.field import ONE, SQRT2, SQRT3, SQRT6, SQRT10, ZERO, scalar
from rank2go.gocheck import fibration_metric
from rank2go.liealg import (
    Subspace,
    centralizer_in,
    mat_apply,
    normalizer,
    orth_complement,
    subalgebra_closure,
    vec_add,
    vec_scale,
)

# The report order: perfbench's references and the classify report rely on it.
EXPECTED_ORDER = (
    "a2.1", "a2.2",
    "a1a1.1", "a1a1.2", "a1a1.3",
    "c2.1", "c2.2", "c2.3",
    "g2.1", "g2.2", "g2.3", "g2.4",
    "berger", "cp3",
)

# The paper's Hopf-fibred spaces, with the name of the intermediate
# subalgebra each one is fibred over.
HOPF_SPACES = tuple(
    i for i in CATALOG_IDS if EXPECTED_VERDICTS[i] == "nonnormal_go_family"
)
HOPF_FIBERS = {"a2.1": "ngh", "c2.1": "ngh", "berger": "ngh", "cp3": "sp1sp1"}

# Derived by hand from the root data: (dim h, dim m) per catalogued space.
EXPECTED_DIMS = {
    "a2.1": (3, 5),
    "a2.2": (3, 5),
    "a1a1.1": (3, 3),
    "a1a1.2": (3, 3),
    "a1a1.3": (3, 3),
    "c2.1": (3, 7),
    "c2.2": (3, 7),
    "c2.3": (3, 7),
    "g2.1": (3, 11),
    "g2.2": (3, 11),
    "g2.3": (3, 11),
    "g2.4": (3, 11),
    "berger": (1, 3),
    "cp3": (4, 6),
}

# Derived: dimension of the fixed-vector space of h acting on m.
EXPECTED_CENTRALIZER_DIM = {
    "a2.1": 1,
    "a2.2": 0,
    "a1a1.1": 3,
    "a1a1.2": 3,
    "a1a1.3": 0,
    "c2.1": 3,
    "c2.2": 1,
    "c2.3": 0,
    "g2.1": 3,
    "g2.2": 3,
    "g2.3": 0,
    "g2.4": 0,
    "berger": 1,
    "cp3": 0,
}


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_space_builds_with_expected_dims(space_id):
    sp = catalog_space(space_id)
    assert (sp.dim_h, sp.dim_m) == EXPECTED_DIMS[space_id]
    assert sp.dim_h + sp.dim_m == sp.algebra.dim


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_decomposition_is_orthogonal_and_reductive(space_id):
    sp = catalog_space(space_id)
    L = sp.algebra
    assert subalgebra_closure(L, sp.h.rows) == sp.h
    assert orth_complement(L, sp.h) == sp.m
    assert sp.h.intersection(sp.m).is_zero()
    for a in sp.h.rows:
        for x in sp.m.rows:
            assert sp.m.contains(L.bracket(a, x))


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_catalog_matches_independently_written_spans(space_id):
    L, h_vecs, m_vecs = declared_spans(space_id)
    sp = catalog_space(space_id)
    assert sp.algebra == L
    assert sp.h == Subspace.from_vectors(L.dim, h_vecs)
    assert sp.m == Subspace.from_vectors(L.dim, m_vecs)


def test_row_accessor_matches_catalog():
    assert CATALOG_IDS == EXPECTED_ORDER
    assert ROW_IDS == CATALOG_IDS[:12]
    for row, space_id in enumerate(ROW_IDS, start=1):
        assert su2_embedding_space(row) is catalog_space(space_id)
    with pytest.raises(ValueError):
        su2_embedding_space(0)
    with pytest.raises(ValueError):
        su2_embedding_space(13)
    with pytest.raises(ValueError):
        sl2_triple_for_row(0)
    with pytest.raises(ValueError):
        sl2_triple_for_row(13)
    with pytest.raises(ValueError):
        catalog_space("so5.1")


def test_build_rejects_an_h_that_is_not_a_subalgebra(monkeypatch):
    """A root space alone, with no coroot: F and G bracket out of their
    span, so the row's h is no subalgebra and the build names the space."""
    row = embed._Row("one root space of c2", "c2",
                     embed._Torus((), ((1, 0),)), embed.ALL_METRICS_NORMAL)
    monkeypatch.setitem(embed._CATALOG, "bad-root", row)
    with pytest.raises(ArithmeticError, match=r"^bad-root: the declared h"):
        catalog_space.__wrapped__("bad-root")


def test_build_rejects_a_complement_that_h_does_not_preserve(monkeypatch):
    """A complement of the right dimension that meets h in 0, made by adding
    a row of h to the first row of m, is not h-invariant: the build raises
    the [h, m] error, not the decomposition one."""
    true_complement = orth_complement

    def skewed(L, sub):
        m = true_complement(L, sub)
        first = vec_add(m.rows[0], sub.rows[0])
        return Subspace.from_vectors(L.dim, (first,) + m.rows[1:])

    sp = catalog_space("c2.1")
    m = skewed(sp.algebra, sp.h)
    assert m.dim == sp.dim_m and sp.h.intersection(m).is_zero()
    monkeypatch.setattr(embed, "orth_complement", skewed)
    with pytest.raises(ArithmeticError, match=r"^c2\.1: \[h, m\] leaves m$"):
        catalog_space.__wrapped__("c2.1")


@pytest.mark.parametrize("row", range(1, 13))
def test_compactified_triple_spans_the_catalogued_subalgebra(row):
    # The catalogue builds h from this same triple, so compare with the
    # span written out by hand in catalog_spans instead.
    cf, e, f, h = sl2_triple_for_row(row)
    u, v, w = compactify_sl2_triple(cf, e, f, h)
    L, h_vecs, _ = declared_spans(ROW_IDS[row - 1])
    assert cf.algebra == L
    span = Subspace.from_vectors(cf.dim, [u, v, w])
    assert span == Subspace.from_vectors(L.dim, h_vecs)


def test_principal_a2_triple_needs_rescaling():
    # The classified span for row 2 has ad(h) eigenvalue 1 on e, not 2,
    # so the compactification must renormalize before balancing.
    cf, e, f, h = sl2_triple_for_row(2)
    he = c_bracket(cf.root_system, cf.constants, h, e)
    assert he == e
    u, v, w = compactify_sl2_triple(cf, e, f, h)
    assert w == cf.algebra.element({"iH[a]": 2, "iH[b]": 2})
    froot = cf.f_vector((1, 0))
    fother = cf.f_vector((0, 1))
    assert u == vec_scale(SQRT2, vec_add(froot, fother))


def test_balanced_triples_match_expected_weights():
    cf, e, f, h = sl2_triple_for_row(8)
    u, v, w = compactify_sl2_triple(cf, e, f, h)
    expected_u = vec_add(
        vec_scale(scalar(2), cf.f_vector((1, 0))),
        vec_scale(SQRT3, cf.f_vector((0, 1))),
    )
    assert u == expected_u
    assert w == cf.algebra.element({"iH[a]": 4, "iH[b]": 3})

    cf, e, f, h = sl2_triple_for_row(11)
    u, v, w = compactify_sl2_triple(cf, e, f, h)
    assert u == vec_add(
        vec_scale(SQRT2, cf.f_vector((3, 2))),
        vec_scale(-SQRT2, cf.f_vector((0, 1))),
    )

    cf, e, f, h = sl2_triple_for_row(12)
    u, v, w = compactify_sl2_triple(cf, e, f, h)
    assert v == vec_add(
        vec_scale(SQRT6, cf.g_vector((1, 0))),
        vec_scale(SQRT10, cf.g_vector((0, 1))),
    )
    assert w == cf.algebra.element({"iH[a]": 6, "iH[b]": 10})


def test_compactify_rejects_malformed_spans():
    cf = build_compact_form("a2")
    e = complex_E((1, 0))
    f = complex_E((-1, 0))
    h = {("H", 0): (ONE, ZERO)}
    # e must live in the root part only
    with pytest.raises(ValueError):
        compactify_sl2_triple(cf, h, f, h)
    # [h, e] not proportional to e
    bad_e = {("E", (1, 0)): (ONE, ZERO), ("E", (0, 1)): (ONE, ZERO)}
    with pytest.raises(ValueError):
        compactify_sl2_triple(cf, bad_e, f, h)
    # f supported on the wrong roots
    with pytest.raises(ValueError):
        compactify_sl2_triple(cf, e, complex_E((0, -1)), h)


def test_single_root_triple_with_unbalanced_f():
    # A genuine sl2 span whose f needs rescaling: [e, 2 E_{-a}] = 2 H_a.
    cf = build_compact_form("a2")
    e = complex_E((1, 0))
    f = c_scale((scalar(2), ZERO), complex_E((-1, 0)))
    h = {("H", 0): (ONE, ZERO)}
    u, v, w = compactify_sl2_triple(cf, e, f, h)
    assert u == cf.f_vector((1, 0))
    assert v == cf.g_vector((1, 0))
    assert w == cf.algebra.basis_vector("iH[a]")


def test_berger_space_structure():
    sp = catalog_space("berger")
    L = sp.algebra
    assert L.labels == ("iH", "F", "G", "Z")
    assert sp.h.contains(L.element({"iH": 1, "Z": 1}))
    assert sp.m.contains(L.element({"iH": 1, "Z": -1}))
    assert sp.m.contains(L.basis_vector("F"))
    # the center really is central
    z = L.basis_vector("Z")
    for i in range(L.dim):
        assert L.bracket(z, L.basis_vector(i)) == tuple([ZERO] * L.dim)
    # h and m are orthogonal under the invariant form
    for a in sp.h.rows:
        for x in sp.m.rows:
            assert not L.form_value(a, x)


def test_twistor_space_structure():
    sp = catalog_space("cp3")
    cf = sp.compact
    assert cf is not None and cf.family == "c2"
    assert sp.h.contains_subspace(cf.cartan_subspace())
    assert sp.h.contains_subspace(cf.root_space((1, 2)))
    expected_m = (
        cf.root_space((1, 0))
        .add(cf.root_space((0, 1)))
        .add(cf.root_space((1, 1)))
    )
    assert sp.m == expected_m


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_centralizer_is_normalizer_intersected_with_m(space_id):
    sp = catalog_space(space_id)
    cent = centralizer_in(sp.algebra, sp.h, sp.m)
    assert cent.dim == EXPECTED_CENTRALIZER_DIM[space_id]
    norm = normalizer(sp.algebra, sp.h)
    assert cent == norm.intersection(sp.m)


def resolve(sp, name):
    """K for a grammar name: the normalizer of h, computed over all of g,
    for "ngh" (gocheck.fibration_metric reads its fiber off the
    decomposition), and embed's resolution for the others."""
    if name == "ngh":
        return normalizer(sp.algebra, sp.h)
    return named_subalgebra(sp, name)


def test_named_subalgebras():
    assert HOPF_SPACES == ("a2.1", "c2.1", "berger", "cp3")
    for space_id in HOPF_SPACES:
        sp = catalog_space(space_id)
        K = resolve(sp, HOPF_FIBERS[space_id])
        assert K.contains_subspace(sp.h)
        assert sp.h.dim < K.dim < sp.algebra.dim
        assert subalgebra_closure(sp.algebra, K.rows) == K

    a21 = catalog_space("a2.1")
    K = resolve(a21, "ngh")
    assert K.dim == 4
    assert K.contains_subspace(a21.h)

    c21 = catalog_space("c2.1")
    K = resolve(c21, "ngh")
    assert K.dim == 6
    assert K == named_subalgebra(c21, "sp1sp1")

    cp3 = catalog_space("cp3")
    K = named_subalgebra(cp3, "sp1sp1")
    assert K == named_subalgebra(cp3, "sp1sp1")
    assert K.dim == 6

    berger = catalog_space("berger")
    K = resolve(berger, "ngh")
    assert K.dim == 2

    g21 = catalog_space("g2.1")
    K = resolve(g21, "ngh")
    assert K.dim == 6


def test_named_subalgebra_errors():
    # "hopf" and "ngh" are read off the decomposition
    # (gocheck.fibration_metric), so neither is the name of an
    # intermediate subalgebra on any space.
    for space_id in CATALOG_IDS:
        for name in ("hopf", "ngh"):
            with pytest.raises(ValueError, match="unknown subalgebra name"):
                named_subalgebra(catalog_space(space_id), name)
    a22 = catalog_space("a2.2")
    assert resolve(a22, "ngh") == a22.h  # not a proper intermediate K
    with pytest.raises(ValueError, match="c2 family only"):
        named_subalgebra(catalog_space("a2.1"), "sp1sp1")
    with pytest.raises(ValueError, match="does not contain h"):
        named_subalgebra(catalog_space("c2.2"), "sp1sp1")
    with pytest.raises(ValueError, match="unknown subalgebra name"):
        named_subalgebra(catalog_space("a2.1"), "gauge")


def assert_scales_the_fiber(sp, name, MF, MB):
    """fib:name:lam is lam on each row of the hand-written fiber MF and 1 on
    each row of the base MB, which together span m."""
    assert MF.dim + MB.dim == sp.dim_m and MF.add(MB) == sp.m
    for lam in (scalar(2), scalar(Fraction(1, 3))):
        M = fibration_metric(sp, name, lam).matrix
        for rows, c in ((MF.rows, lam), (MB.rows, ONE)):
            for v in rows:
                x = sp.m.coords(v)
                assert list(mat_apply(M, x)) == [c * t for t in x], (sp.space_id, name)


def test_fibration_splits():
    a21 = catalog_space("a2.1")
    cf = a21.compact
    MF = Subspace.from_vectors(cf.dim, [cf.algebra.element({"iH[a]": 1, "iH[b]": -1})])
    MB = cf.root_space((1, 0)).add(cf.root_space((0, 1)))
    assert (MF.dim, MB.dim) == (1, 4)
    assert_scales_the_fiber(a21, "ngh", MF, MB)

    c21 = catalog_space("c2.1")
    cf = c21.compact
    MF = Subspace.from_vectors(
        cf.dim,
        [cf.algebra.basis_vector("iH[a]")] + list(cf.root_space((1, 0)).rows),
    )
    MB = cf.root_space((0, 1)).add(cf.root_space((1, 1)))
    assert (MF.dim, MB.dim) == (3, 4)
    assert_scales_the_fiber(c21, "ngh", MF, MB)
    assert_scales_the_fiber(c21, "sp1sp1", MF, MB)

    cp3 = catalog_space("cp3")
    cf = cp3.compact
    MF = cf.root_space((1, 0))
    MB = cf.root_space((0, 1)).add(cf.root_space((1, 1)))
    assert (MF.dim, MB.dim) == (2, 4)
    assert_scales_the_fiber(cp3, "sp1sp1", MF, MB)

    berger = catalog_space("berger")
    L = berger.algebra
    MF = Subspace.from_vectors(L.dim, [L.element({"iH": 1, "Z": -1})])
    MB = Subspace.from_vectors(L.dim, [L.basis_vector("F"), L.basis_vector("G")])
    assert (MF.dim, MB.dim) == (1, 2)
    assert_scales_the_fiber(berger, "ngh", MF, MB)


def test_fibration_split_rejections(monkeypatch):
    # fibration_metric refuses a K it cannot split into fiber and base.
    c21 = catalog_space("c2.1")
    cf = c21.compact
    # contains h but is not closed under the bracket: bracketing with h
    # rotates F[b] into G[b], which is missing from the span
    not_closed = c21.h.add(
        Subspace.from_vectors(cf.dim, [cf.f_vector((0, 1))])
    )
    assert subalgebra_closure(c21.algebra, not_closed.rows) != not_closed
    named = gocheck.named_subalgebra
    monkeypatch.setattr(
        gocheck,
        "named_subalgebra",
        lambda space, name: not_closed if name == "open" else named(space, name),
    )
    with pytest.raises(ValueError, match="^K is not a subalgebra$"):
        fibration_metric(c21, "open", 2)
    # a subalgebra that does not contain h
    with pytest.raises(ValueError, match="^sp1sp1 does not contain h for space c2.2$"):
        fibration_metric(catalog_space("c2.2"), "sp1sp1", 2)
