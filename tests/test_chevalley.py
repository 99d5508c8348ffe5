"""Unit tests for structure constants and the compact real forms."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from rank2go.field import ONE, SQRT2, ZERO, scalar
from rank2go.chevalley import (
    _compact_labels,
    _coordinates,
    _q_form,
    _trace_scale,
    build_compact_form,
    c_bracket,
    complete_structure_constants,
    complex_E,
    complex_H,
    coroot_coefficients,
    summary_dict,
    validate_structure_constants,
)
from rank2go.liealg import (
    LieAlgebra,
    is_zero_vector,
    trace_product,
    unit_vector,
    vec_scale,
    zero_vector,
)
from rank2go.rootsys import (
    build_root_system,
    cartan_int,
    chain_down_length,
    parse_root,
    root_neg,
)

A, B = (1, 0), (0, 1)


def test_seeds_determine_everything_without_fallback():
    for fam in ("a2", "a1a1", "c2", "g2"):
        rs = build_root_system(fam)
        table = complete_structure_constants(rs)
        pairs = sum(
            1
            for g in rs.roots
            for d in rs.roots
            if rs.is_root((g[0] + d[0], g[1] + d[1]))
        )
        assert len(table) == pairs


def test_frozen_constant_values():
    a2 = complete_structure_constants(build_root_system("a2"))
    assert a2[(A, B)] == 1
    assert a2[(B, A)] == -1
    assert a2[((-1, -1), A)] == 1

    c2 = complete_structure_constants(build_root_system("c2"))
    assert c2[(A, B)] == 1
    assert c2[(B, (-1, -1))] == 2
    assert c2[((1, 1), B)] == 2
    assert c2[(B, (-1, -2))] == 1

    g2 = complete_structure_constants(build_root_system("g2"))
    assert g2[(B, A)] == 1
    assert g2[(A, B)] == -1
    assert g2[(A, (2, 1))] == 3
    assert g2[(A, (-1, -1))] == 3
    assert g2[((1, 1), A)] == 2
    assert g2[(A, (1, 1))] == -2
    assert g2[((1, 1), (2, 1))] == 3
    assert g2[(B, (3, 1))] == 1


def test_magnitude_law_holds_everywhere():
    for fam in ("a2", "c2", "g2"):
        rs = build_root_system(fam)
        table = complete_structure_constants(rs)
        for (g, d), v in table.items():
            assert abs(v) == chain_down_length(rs, g, d) + 1


def test_validation_catches_tampering():
    rs = build_root_system("a2")
    table = complete_structure_constants(rs)
    bad = dict(table)
    bad[(A, B)] = 2
    with pytest.raises(ValueError):
        validate_structure_constants(rs, bad)
    incomplete = dict(table)
    del incomplete[(A, B)]
    with pytest.raises(ValueError):
        validate_structure_constants(rs, incomplete)


def test_complex_bracket_basics():
    rs = build_root_system("a2")
    table = complete_structure_constants(rs)
    # [E_a, E_b] = N[a,b] E_{a+b}
    z = c_bracket(rs, table, complex_E(A), complex_E(B))
    assert z == {("E", (1, 1)): (scalar(1), ZERO)}
    # [E_a, E_{-a}] = H_a
    z = c_bracket(rs, table, complex_E(A), complex_E((-1, 0)))
    assert z == complex_H(rs, A)
    # [H_a, E_b] = <b, a> E_b = -E_b
    z = c_bracket(rs, table, complex_H(rs, A), complex_E(B))
    assert z == {("E", B): (scalar(-1), ZERO)}


def test_coroot_coefficients_match_known_expansions():
    g2 = build_root_system("g2")
    assert coroot_coefficients(g2, (1, 1)) == (Fraction(1), Fraction(3))
    assert coroot_coefficients(g2, (2, 1)) == (Fraction(2), Fraction(3))
    assert coroot_coefficients(g2, (3, 1)) == (Fraction(1), Fraction(1))
    assert coroot_coefficients(g2, (3, 2)) == (Fraction(1), Fraction(2))
    assert coroot_coefficients(g2, (9, 5)) == (Fraction(3, 7), Fraction(5, 7))
    assert coroot_coefficients(g2, (1, -1)) == (Fraction(1, 7), Fraction(-3, 7))
    c2 = build_root_system("c2")
    assert coroot_coefficients(c2, (1, 1)) == (Fraction(2), Fraction(1))
    assert coroot_coefficients(c2, (1, 2)) == (Fraction(1), Fraction(1))
    a2 = build_root_system("a2")
    assert coroot_coefficients(a2, (1, 1)) == (Fraction(1), Fraction(1))


def test_compact_dimensions_and_labels():
    dims = {"a2": 8, "a1a1": 6, "c2": 10, "g2": 14}
    for fam, d in dims.items():
        cf = build_compact_form(fam)
        assert cf.dim == d
        assert cf.algebra.labels[0] == "iH[a]"
        assert cf.algebra.labels[1] == "iH[b]"
        assert cf.algebra.labels[2] == "F[a]"
        assert cf.algebra.labels[3] == "G[a]"


def test_jacobi_identity_all_basis_triples():
    for fam in ("a2", "a1a1", "c2", "g2"):
        L = build_compact_form(fam).algebra
        basis = [L.basis_vector(i) for i in range(L.dim)]
        for u in basis:
            for v in basis:
                for w in basis:
                    assert is_zero_vector(L.jacobi_defect(u, v, w))


def test_killing_scales():
    # Ratio between tr(ad x ad y) and the stored normalized form.  For the
    # simple families this is 2 h * (long root length)^2 / 2 in the scaling
    # where alpha^2 = 1; concretely: sum over roots d of <d, a>^2 divided by 4.
    expected = {"a2": 3, "a1a1": 2, "c2": 3, "g2": 12}
    for fam, s in expected.items():
        assert build_compact_form(fam).algebra.killing_scale == Fraction(s)


def test_killing_diagonal_values():
    a2 = build_compact_form("a2")
    for g in a2.root_system.positive_roots:
        for v in (a2.f_vector(g), a2.g_vector(g)):
            assert a2.algebra.killing(v, v) == scalar(-4)

    c2 = build_compact_form("c2")
    expect = {(1, 0): -4, (1, 2): -4, (0, 1): -8, (1, 1): -8}
    for g, val in expect.items():
        assert c2.algebra.killing(c2.f_vector(g), c2.f_vector(g)) == scalar(val)

    g2 = build_compact_form("g2")
    for g in ((1, 0), (1, 1), (2, 1)):
        assert g2.algebra.killing(g2.f_vector(g), g2.f_vector(g)) == scalar(-4)
    for g in ((0, 1), (3, 1), (3, 2)):
        assert g2.algebra.killing(g2.f_vector(g), g2.f_vector(g)) == scalar(
            Fraction(-4, 3)
        )


def test_killing_equals_stored_form_everywhere():
    for fam in ("a2", "c2"):
        L = build_compact_form(fam).algebra
        for i in range(L.dim):
            for j in range(L.dim):
                v, w = L.basis_vector(i), L.basis_vector(j)
                assert L.killing(v, w) == L.form_value(v, w)


def test_compact_bracket_patterns():
    g2 = build_compact_form("g2")
    L = g2.algebra
    # [F_g, G_g] = 2 i H_g
    fg = L.bracket(g2.f_vector((1, 1)), g2.g_vector((1, 1)))
    assert fg == g2.ih_vector((1, 1), 2)
    # [iH_a, F_b] = <b, a> G_b = -3 G_b
    z = L.bracket(L.basis_vector("iH[a]"), g2.f_vector(B))
    assert z == vec_scale(-3, g2.g_vector(B))
    # [iH_a, G_b] = -<b, a> F_b = 3 F_b
    z = L.bracket(L.basis_vector("iH[a]"), g2.g_vector(B))
    assert z == vec_scale(3, g2.f_vector(B))
    # [F_a, F_b] = N[a,b] F_{a+b} (a - b is not a root here)
    z = L.bracket(g2.f_vector(A), g2.f_vector(B))
    assert z == vec_scale(g2.constants[(A, B)], g2.f_vector((1, 1)))
    # Cartan vectors commute.
    assert is_zero_vector(
        L.bracket(L.basis_vector("iH[a]"), L.basis_vector("iH[b]"))
    )


def test_root_space_bracket_support():
    # [m_g, m_d] lands in m_{g+d} + m_{g-d} (+ Cartan when g = d).
    g2 = build_compact_form("g2")
    L = g2.algebra
    for g in g2.root_system.positive_roots:
        for d in g2.root_system.positive_roots:
            allowed = set()
            for s in (
                (g[0] + d[0], g[1] + d[1]),
                (g[0] - d[0], g[1] - d[1]),
            ):
                if g2.root_system.is_root(s):
                    pos = s if g2.root_system.is_positive(s) else (-s[0], -s[1])
                    t = g2.root_system.positive_roots.index(pos)
                    allowed.update({2 + 2 * t, 3 + 2 * t})
            if g == d:
                allowed.update({0, 1})
            for x in (g2.f_vector(g), g2.g_vector(g)):
                for y in (g2.f_vector(d), g2.g_vector(d)):
                    w = L.bracket(x, y)
                    for idx, c in enumerate(w):
                        if c:
                            assert idx in allowed


def test_collapse_rejects_non_compact_elements():
    a2 = build_compact_form("a2")
    with pytest.raises(ValueError):
        a2.collapse(complex_E(A))
    with pytest.raises(ValueError):
        a2.collapse(complex_H(a2.root_system, A))


def test_expand_collapse_round_trip():
    g2 = build_compact_form("g2")
    v = g2.algebra.element({"iH[a]": 2, "F[a+b]": scalar(3), "G[3a+2b]": -1})
    assert g2.collapse(g2.expand(v)) == v


def test_summary_dict_shape():
    cf = build_compact_form("c2")
    info = summary_dict(cf)
    assert info["family"] == "c2"
    assert info["dimension"] == 10
    assert info["killing_scale"] == "3"
    assert info["structure_constants"]["N[a,b]"] == 1
    assert len(info["basis"]) == 10
    assert info["form_diagonal"]["F[b]"] == "-8"


def test_every_spelling_of_a_family_returns_one_cached_form():
    assert build_compact_form("G2") is build_compact_form("g2")
    assert build_compact_form("a1xa1") is build_compact_form("a1a1")
    assert build_compact_form("C2") is build_compact_form("c2")


# SHA-256 per family of the labels, every table entry, the stored form,
# killing_scale and the structure constants, each value as exact_str.
COMPACT_FORM_SHA256 = {
    "a2": "edbfabc38013708c5bfbdd306e6706842962193fbc1c90adcc2f41d05b98a0df",
    "a1a1": "57ead1e246d29968a0d92390167a4be0f565e2c0483c0efa11d4cb0880178bc3",
    "c2": "2c1ecc743f6cb20180cb43dc0a3265f8ec479c6a7e46b623748659b72c51049a",
    "g2": "872c451fd0d9071af967fcc689e25e2e916ce799d8cd25064a91302c64ca31ce",
}


def test_compact_forms_match_the_golden_hashes():
    for fam, expected in COMPACT_FORM_SHA256.items():
        cf = build_compact_form(fam)
        L = cf.algebra
        text = json.dumps(
            {
                "labels": list(L.labels),
                "table": [
                    [[[k, c.exact_str()] for k, c in terms] for terms in row]
                    for row in L.table
                ],
                "form": [[x.exact_str() for x in row] for row in L.form],
                "killing_scale": scalar(L.killing_scale).exact_str(),
                "constants": sorted(
                    [list(g), list(d), scalar(v).exact_str()]
                    for (g, d), v in cf.constants.items()
                ),
            },
            sort_keys=True,
        )
        assert hashlib.sha256(text.encode()).hexdigest() == expected, fam


# -- the Scalar build, kept as a reference for the rational table ---------------


def _scalar_expansion(label):
    """Complex expansion of a compact basis element, with Scalar parts."""
    if label.startswith("iH["):
        return {("H", 0 if label == "iH[a]" else 1): (ZERO, ONE)}
    gamma = parse_root(label[2:-1])
    if label.startswith("F["):
        return {("E", gamma): (ONE, ZERO), ("E", root_neg(gamma)): (-ONE, ZERO)}
    return {("E", gamma): (ZERO, ONE), ("E", root_neg(gamma)): (ZERO, ONE)}


def _dense_collapse(rs, dim, z):
    """Dense Scalar coordinates of a complex element of the compact form."""
    coords = [ZERO] * dim
    seen = set()
    for key, (re, im) in z.items():
        if key in seen:
            continue
        if key[0] == "H":
            if re:
                raise ValueError("element is not in the compact form: real H part")
            coords[key[1]] = im
            seen.add(key)
            continue
        gamma = key[1]
        pos = gamma if rs.is_positive(gamma) else root_neg(gamma)
        kplus, kminus = ("E", pos), ("E", root_neg(pos))
        aplus, bplus = z.get(kplus, (ZERO, ZERO))
        aminus, bminus = z.get(kminus, (ZERO, ZERO))
        if aminus != -aplus or bminus != bplus:
            raise ValueError("element is not in the compact form: root pair mismatch")
        t = rs.positive_roots.index(pos)
        coords[2 + 2 * t] = aplus
        coords[3 + 2 * t] = bplus
        seen.add(kplus)
        seen.add(kminus)
    return tuple(coords)


def reference_compact_algebra(family):
    """Every table entry from c_bracket on Scalar expansions, both orders,
    and the trace form from the ad matrices, as the compact forms were built
    before the rational table."""
    rs = build_root_system(family)
    constants = complete_structure_constants(rs)
    labels = _compact_labels(rs)
    n = len(labels)
    form = [[scalar(x) for x in row] for row in _q_form(rs, n)]
    expansions = [_scalar_expansion(lab) for lab in labels]

    def bracket_fn(i, j):
        z = c_bracket(rs, constants, expansions[i], expansions[j])
        return {k: c for k, c in enumerate(_dense_collapse(rs, n, z)) if c}

    algebra = LieAlgebra.from_bracket_function(
        f"{rs.family}-compact", labels, bracket_fn, form
    )
    ads = [algebra.ad(algebra.basis_vector(i)) for i in range(n)]
    entries = [
        (i, j, trace_product(ads[i], ads[j]), algebra.form[i][j])
        for i in range(n)
        for j in range(n)
    ]
    ratio = entries[0][2] / entries[0][3]
    if not ratio.is_rational:
        raise ArithmeticError("trace/form ratio is irrational")
    scale = ratio.as_fraction()
    if scale <= 0:
        raise ArithmeticError("trace/form ratio is not positive")
    for i, j, t, q in entries:
        if t != q * scalar(scale):
            raise ArithmeticError(
                f"trace form deviates from the stored form at "
                f"({labels[i]}, {labels[j]})"
            )
    return replace(algebra, killing_scale=scale)


def test_rational_build_matches_the_scalar_reference():
    for fam in ("a2", "a1a1", "c2", "g2"):
        reference = reference_compact_algebra(fam)
        L = build_compact_form(fam).algebra
        assert L.table == reference.table, fam
        assert L.form == reference.form, fam
        assert L.killing_scale == reference.killing_scale, fam
        assert L == reference, fam


def _rational_rows(L):
    rows = [[{k: c.as_fraction() for k, c in cell} for cell in row] for row in L.table]
    form = [[x.as_fraction() for x in row] for row in L.form]
    return rows, form


def test_calibration_reads_the_rational_table():
    for fam in ("a2", "a1a1", "c2", "g2"):
        L = build_compact_form(fam).algebra
        rows, form = _rational_rows(L)
        assert _trace_scale(rows, form, list(L.labels)) == L.killing_scale


def test_calibration_rejects_a_tampered_table():
    for fam in ("a2", "g2"):
        L = build_compact_form(fam).algebra
        labels = list(L.labels)
        rows, form = _rational_rows(L)
        # [F[a], F[b]] = N[a,b] F[a+b] (index 6) in both families.
        assert list(rows[2][4]) == [6]
        rows[2][4][6] *= 2
        with pytest.raises(ArithmeticError) as err:
            _trace_scale(rows, form, labels)
        assert str(err.value) == (
            "trace form deviates from the stored form at (F[a], F[a])"
        )

        rows, form = _rational_rows(L)
        rows[0][2][3] = rows[0][2][3] * SQRT2
        with pytest.raises(ArithmeticError, match="^trace/form ratio is irrational$"):
            _trace_scale(rows, form, labels)

        rows, form = _rational_rows(L)
        negated = [[-x for x in row] for row in form]
        with pytest.raises(ArithmeticError, match="^trace/form ratio is not positive$"):
            _trace_scale(rows, negated, labels)


def test_int_coordinates_reject_non_compact_elements():
    a2 = build_compact_form("a2")
    rs = a2.root_system
    with pytest.raises(ValueError, match="root pair mismatch"):
        _coordinates(rs, {("E", A): (1, 0)})
    with pytest.raises(ValueError, match="root pair mismatch"):
        _coordinates(rs, {("E", A): (1, 0), ("E", (-1, 0)): (1, 0)})
    with pytest.raises(ValueError, match="real H part"):
        _coordinates(rs, {("H", 0): (1, 0)})
    with pytest.raises(ValueError, match="real H part"):
        a2.collapse({("H", 1): (Fraction(1, 2), 3)})
    # F[a] and 3 i H[b], with int parts.
    assert _coordinates(rs, {("E", A): (1, 0), ("E", (-1, 0)): (-1, 0)}) == {2: 1}
    assert _coordinates(rs, {("H", 1): (0, 3)}) == {1: 3}
