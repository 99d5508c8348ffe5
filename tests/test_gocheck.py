"""Tests for invariant metrics and the geodesic-orbit checker."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import chain, product
from types import SimpleNamespace

import pytest

from rank2go import field, gocheck
from rank2go.cli import (
    COMMUTANT_PROBE_STEPS,
    LATTICE,
    _candidate_metrics,
    metric_from_spec,
)
from rank2go.embed import (
    CATALOG_IDS,
    catalog_space,
    named_subalgebra,
)
from rank2go.field import (
    SQRT2,
    SQRT3,
    ZERO,
    Scalar,
    clear_denominators,
    parse_scalar,
    ring_lift,
    scalar,
)
from rank2go.gocheck import (
    GoVerdict,
    Witness,
    _direction_checker,
    _random_direction,
    biinvariance_filter,
    explicit_metric,
    fibration_metric,
    find_witness,
    solve_compensator,
    go_sample_check,
    metric_from_blocks,
    normalizer_filter,
    standard_metric,
    structured_directions,
    two_block_family,
    verify_witness,
)
from rank2go.isotypic import (
    casimir,
    commutant_symmetric_basis,
    component_projections,
    isotypic_decompose,
    m_gram,
)
from rank2go.liealg import (
    ad_on,
    eigenspace_in,
    gram_matrix,
    ideal_decomposition,
    identity_matrix,
    int_rows,
    is_positive_definite,
    lift_rows,
    mat_apply,
    mat_combine,
    mat_inverse,
    mat_mul,
    mat_scale,
    mat_transpose,
    minimal_polynomial,
    normalizer,
    operator_on_subspace,
    orth_complement,
    rational_roots,
    scalar_of,
    Subspace,
    solve_columns,
    su2,
    subalgebra_closure,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)


def p_block_metric(space, p_matrix, rest_coeff=1):
    """Metric acting by p_matrix on the fixed part (in its row basis, which
    is orthogonal with equal norms on every catalogued space that has one)
    and by rest_coeff on everything else."""
    dec = isotypic_decompose(space)
    p = dec.trivial_subspace
    rest = [
        r
        for comp in dec.components
        if not comp.is_trivial
        for r in comp.subspace.rows
    ]
    cols = [space.m.coords(v) for v in list(p.rows) + rest]
    n = space.dim_m
    T = [[cols[j][i] for j in range(n)] for i in range(n)]
    k = p.dim
    diag = [[ZERO] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            diag[i][j] = scalar(p_matrix[i][j])
    for i in range(k, n):
        diag[i][i] = scalar(rest_coeff)
    return explicit_metric(space, mat_mul(T, mat_mul(diag, mat_inverse(T))))


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_standard_metric_is_identity_and_sampled_go(space_id):
    sp = catalog_space(space_id)
    metric = standard_metric(sp)
    assert metric.provenance == "standard"
    n = sp.dim_m
    for i in range(n):
        for j in range(n):
            assert metric.matrix[i][j] == (1 if i == j else 0)
    verdict = go_sample_check(sp, metric, samples=5)
    assert verdict.status == "go_sampled"
    assert verdict.samples_run == len(structured_directions(sp)) + 5
    assert dict(verdict.filters) == {"normalizer": True, "biinvariance": True}
    assert verdict.witness is None and verdict.filter_name is None


def test_validation_rejects_bad_operators():
    sp = catalog_space("a2.1")
    n = sp.dim_m
    # asymmetric junk off the diagonal
    bad = [[(1 if i == j else 0) for j in range(n)] for i in range(n)]
    bad[0][1] = scalar(1)
    with pytest.raises(ValueError):
        explicit_metric(sp, bad)
    # negative block: symmetric and equivariant but not positive definite
    with pytest.raises(ValueError, match="positive definite"):
        metric_from_blocks(sp, (-1, 1))
    with pytest.raises(ValueError, match="coefficients"):
        metric_from_blocks(sp, (1, 2, 3))
    with pytest.raises(ValueError, match="positive"):
        fibration_metric(sp, "hopf", 0)
    with pytest.raises(ValueError, match="positive"):
        fibration_metric(sp, "hopf", Fraction(-1, 2))
    with pytest.raises(ValueError):
        named = fibration_metric(sp, "sp1sp1", 2)  # not defined on this space


def test_blocks_dispatch_and_fibration_agree():
    # Every named fibration metric is a block metric.  Its matrix is pinned
    # by K alone: M is lam on each row of the fiber K intersect m and 1 on
    # each row of the base, the complement of K, and these rows span m.  It
    # equals the block metric with lam on the fiber block and the Hopf
    # metric, and the three searches agree at two seeds.
    for space_id, names in FIBER_NAMES.items():
        sp = catalog_space(space_id)
        for name, lam in product(names, (scalar(2), scalar(Fraction(1, 3)), SQRT2)):
            K = resolved_fiber_subalgebra(sp, name)
            fiber, base = K.intersection(sp.m), orth_complement(sp.algebra, K)
            assert fiber.dim + base.dim == sp.dim_m and base.add(fiber) == sp.m
            fib = fibration_metric(sp, name, lam)
            for rows, c in ((fiber.rows, lam), (base.rows, scalar(1))):
                for v in rows:
                    x = sp.m.coords(v)
                    assert list(mat_apply(fib.matrix, x)) == [c * t for t in x]
            assert fib.rows.coeffs is not None
            assert fib.provenance == "fibration"
            assert fib.params == (name, lam.exact_str())
            coeffs = [1, 1]
            coeffs[gocheck._fiber_index(sp)] = lam
            blocks = metric_from_blocks(sp, coeffs)
            hopf = fibration_metric(sp, "hopf", lam)
            assert blocks.matrix == fib.matrix == hopf.matrix
            for seed in (42, 7):
                for search in (go_sample_check, find_witness):
                    verdicts = [
                        search(sp, metric, 50, seed).to_dict(include_time=False)
                        for metric in (blocks, fib, hopf)
                    ]
                    assert verdicts[0] == verdicts[1] == verdicts[2], (
                        space_id, name, lam, seed, search.__name__
                    )


def test_named_metrics_are_built_without_validation(monkeypatch):
    # standard and every fib: metric are per-component block metrics,
    # accepted on the signs of their coefficients: no dense validation.
    calls = []

    def spy(space, *args, _original=gocheck._validated):
        calls.append(space.space_id)
        return _original(space, *args)

    monkeypatch.setattr(gocheck, "_validated", spy)
    for space_id in CATALOG_IDS:
        sp = catalog_space(space_id)
        ones = (1,) * len(isotypic_decompose(sp).components)
        metric = metric_from_spec(sp, "standard")
        assert metric.rows.coeffs == ones
        assert metric.matrix == identity_matrix(sp.dim_m)
        assert (metric.provenance, metric.params) == ("standard", ())
        assert metric.scaled(3).rows.coeffs == tuple(3 * c for c in ones)
    for space_id, names in FIBER_NAMES.items():
        sp = catalog_space(space_id)
        for name, lam in product(("hopf",) + names, ("2", "1/2", "r2", "1")):
            metric = metric_from_spec(sp, f"fib:{name}:{lam}")
            assert metric.scaled(3).rows.coeffs is not None
    assert calls == []


def test_fibration_eigenvalue_profiles():
    sp = catalog_space("c2.1")
    m = fibration_metric(sp, "hopf", 2)
    dims = {
        lam: eigenspace_in(sp.m, m.matrix, lam).dim
        for lam in set(rational_roots(minimal_polynomial(m.matrix)))
    }
    assert dims == {Fraction(2): 3, Fraction(1): 4}
    sp = catalog_space("cp3")
    m = fibration_metric(sp, "hopf", Fraction(1, 2))
    dims = {
        lam: eigenspace_in(sp.m, m.matrix, lam).dim
        for lam in set(rational_roots(minimal_polynomial(m.matrix)))
    }
    assert dims == {Fraction(1, 2): 2, Fraction(1): 4}


def commutant_coordinates(sp, matrix):
    """The coefficients of matrix on the symmetric commutant basis."""
    n = sp.dim_m
    flat = [
        tuple(B[i][j] for i in range(n) for j in range(n))
        for B in commutant_symmetric_basis(sp)
    ]
    target = tuple(x for row in matrix for x in row)
    return solve_columns(flat, target)[0]


def test_commutant_length_coefficients_are_accepted():
    # Solve for the coefficients expressing the identity over the symmetric
    # commutant basis, then rebuild it through the commutant-length route.
    sp = catalog_space("c2.1")
    assert len(commutant_symmetric_basis(sp)) == 7
    coeffs = commutant_coordinates(sp, identity_matrix(sp.dim_m))
    assert coeffs is not None
    metric = metric_from_blocks(sp, coeffs)
    assert metric.provenance == "block_coeffs"
    assert len(metric.params) == 7
    assert metric.matrix == standard_metric(sp).matrix
    # a small perturbation along one commutant direction is still accepted
    perturbed = list(coeffs)
    perturbed[0] = perturbed[0] + scalar(Fraction(1, 8))
    metric = metric_from_blocks(sp, perturbed)
    assert metric.matrix != standard_metric(sp).matrix


def test_compensator_solution_verifies():
    sp = catalog_space("c2.1")
    metric = fibration_metric(sp, "hopf", 2)
    L = sp.algebra
    x = zero_vector(L.dim)
    for c, row in zip(range(1, sp.dim_m + 1), sp.m.rows):
        x = vec_add(x, vec_scale(scalar(c), row))
    a, rank_map, rank_aug = solve_compensator(sp, metric, sp.m.coords(x))
    assert a is not None and rank_map == rank_aug
    y = metric.apply(x)
    assert L.bracket(a, y) == L.bracket(y, x)


def test_standard_metric_compensator_is_zero():
    sp = catalog_space("g2.3")
    metric = standard_metric(sp)
    L = sp.algebra
    x = vec_add(sp.m.rows[0], vec_scale(scalar(3), sp.m.rows[4]))
    a, _, _ = solve_compensator(sp, metric, sp.m.coords(x))
    assert a == zero_vector(L.dim)


REFUTATION_CASES = [
    ("c2.2", (2, 1)),
    ("g2.1", (2, 1)),
    ("g2.2", (3, 1)),
    ("g2.3", (2, 1)),
]


@pytest.mark.parametrize("space_id,coeffs", REFUTATION_CASES)
def test_block_skewed_metrics_are_refuted_with_replayable_witness(
    space_id, coeffs
):
    sp = catalog_space(space_id)
    metric = metric_from_blocks(sp, coeffs)
    verdict = find_witness(sp, metric, budget=50)
    assert verdict.status == "not_go_certified"
    assert verdict.samples_run <= 50 + len(structured_directions(sp))
    w = verdict.witness
    assert w is not None and w.rank_augmented == w.rank_map + 1
    assert verify_witness(sp, metric, w)
    replay = Witness.from_dict(w.to_dict())
    assert replay == w
    assert verify_witness(sp, metric, replay)


def test_two_block_means_sampling_catches_what_filters_miss():
    # On spaces whose fixed part is a full simple block the skewed metric
    # passes both filters; only sampling refutes it.
    sp = catalog_space("g2.1")
    metric = metric_from_blocks(sp, (2, 1))
    assert normalizer_filter(sp, metric)
    assert biinvariance_filter(sp, metric)
    verdict = go_sample_check(sp, metric, samples=5)
    assert verdict.status == "not_go_certified"


def test_biinvariance_rejects_every_nonscalar_on_c21():
    sp = catalog_space("c2.1")
    nonscalar = [
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        [[1, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 5]],
    ]
    for p_mat in nonscalar:
        metric = p_block_metric(sp, p_mat, rest_coeff=1)
        assert not biinvariance_filter(sp, metric)
    for c in (1, 2, Fraction(1, 3)):
        metric = p_block_metric(sp, [[c, 0, 0], [0, c, 0], [0, 0, c]], 2)
        assert biinvariance_filter(sp, metric)
        assert normalizer_filter(sp, metric)


def test_filtered_out_short_circuits_sampling():
    sp = catalog_space("c2.1")
    metric = p_block_metric(sp, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    verdict = go_sample_check(sp, metric, samples=200)
    assert verdict.status == "filtered_out"
    assert verdict.filter_name == "normalizer"
    assert verdict.samples_run == 0
    assert dict(verdict.filters)["biinvariance"] is False
    # the unfiltered search refutes the same metric by sampling itself
    verdict = find_witness(sp, metric, budget=200)
    assert verdict.status == "not_go_certified"


def test_center_blocks_are_unconstrained_by_biinvariance():
    sp = catalog_space("berger")
    metric = p_block_metric(sp, [[7]], rest_coeff=Fraction(1, 3))
    assert biinvariance_filter(sp, metric)
    assert normalizer_filter(sp, metric)
    assert go_sample_check(sp, metric, samples=20).status == "go_sampled"


def test_lie_group_rows_admit_only_scalar_go_metrics():
    sp = catalog_space("a1a1.1")
    skew = p_block_metric(sp, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert not biinvariance_filter(sp, skew)
    verdict = find_witness(sp, skew, budget=10)
    assert verdict.status == "not_go_certified"
    round_metric = p_block_metric(sp, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert biinvariance_filter(sp, round_metric)
    assert go_sample_check(sp, round_metric, samples=10).status == "go_sampled"


@pytest.mark.parametrize(
    "space_id,coeffs,factor",
    [
        ("c2.2", (2, 1), 3),
        ("g2.3", (2, 1), 3),
        ("a2.1", (2, 1), SQRT2),
        ("c2.1", (5, 1), Fraction(1, 7)),
    ],
)
def test_homothety_invariance(space_id, coeffs, factor):
    sp = catalog_space(space_id)
    metric = metric_from_blocks(sp, coeffs)
    scaled = metric.scaled(factor)
    v1 = go_sample_check(sp, metric, samples=10)
    v2 = go_sample_check(sp, scaled, samples=10)
    assert v1.status == v2.status
    assert v1.samples_run == v2.samples_run
    assert v1.witness == v2.witness
    assert v1.filters == v2.filters


def test_verdict_serialization():
    sp = catalog_space("c2.2")
    metric = metric_from_blocks(sp, (2, 1))
    verdict = go_sample_check(sp, metric, samples=5)
    data = verdict.to_dict()
    assert data["status"] == "not_go_certified"
    assert data["seed"] == 42
    assert set(data["filters"]) == {"normalizer", "biinvariance"}
    assert "elapsed_s" in data
    assert "elapsed_s" not in verdict.to_dict(include_time=False)
    w = Witness.from_dict(data["witness"])
    assert verify_witness(sp, metric, w)
    for text in data["witness"]["coords"]:
        parse_scalar(text)


def test_float_least_squares_cross_check():
    # For a spread of spaces, metrics, and directions, the exact
    # solvability decision matches a floating-point least-squares residual
    # test at 1e-8 on the same linear system.  numpy is an optional oracle.
    np = pytest.importorskip("numpy")
    rng_cases = []
    for space_id in CATALOG_IDS:
        sp = catalog_space(space_id)
        metrics = [standard_metric(sp)]
        k = len(isotypic_decompose(sp).components)
        if k == 2:
            metrics.append(metric_from_blocks(sp, (2, 1)))
            metrics.append(metric_from_blocks(sp, (Fraction(1, 3), 1)))
        for metric in metrics:
            rng_cases.append((sp, metric))
    import random as _random

    rng = _random.Random(7)
    checked = 0
    disagreements = 0
    while checked < 100:
        sp, metric = rng_cases[checked % len(rng_cases)]
        n = sp.dim_m
        coords = [rng.randrange(-9, 10) for _ in range(n)]
        if not any(coords):
            continue
        x = zero_vector(sp.algebra.dim)
        for c, row in zip(coords, sp.m.rows):
            if c:
                x = vec_add(x, vec_scale(scalar(c), row))
        sol, _, _ = solve_compensator(sp, metric, coords)
        L = sp.algebra
        y = metric.apply(x)
        columns = [L.bracket(a, y) for a in sp.h.rows]
        rhs = L.bracket(y, x)
        A = np.array(
            [[float(col[i]) for col in columns] for i in range(L.dim)],
            dtype=float,
        )
        b = np.array([float(rhs[i]) for i in range(L.dim)], dtype=float)
        t, *_ = np.linalg.lstsq(A, b, rcond=None)
        residual = float(np.linalg.norm(A @ t - b))
        scale = max(1.0, float(np.linalg.norm(b)))
        float_solvable = residual / scale < 1e-8
        exact_solvable = sol is not None
        if float_solvable != exact_solvable:
            disagreements += 1
        checked += 1
    assert checked == 100
    assert disagreements == 0


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_direction_kernel_matches_the_ambient_solve(space_id):
    # The m-coordinate checker of the search loop agrees with the ambient
    # solve_compensator on the decision and on the rank pair: on one int
    # system for rational metrics and for metrics with one radical, and on
    # the int systems of each radical packed into ring rows for
    # mixed-radical metrics.  The irrational spaces c2.3 and g2.4 call
    # solve_compensator itself.
    import random as _random

    sp = catalog_space(space_id)
    metrics = [standard_metric(sp)]
    if len(isotypic_decompose(sp).components) == 2:
        metrics += [
            metric_from_blocks(sp, coeffs)
            for coeffs in (
                (2, 1), (Fraction(1, 3), 1), (SQRT2, 1), (1 + SQRT2, 3),
                (2 - SQRT3, SQRT2), (SQRT2, 2 * SQRT2), (1 + SQRT2, SQRT3),
            )
        ]
    rng = _random.Random(space_id)
    directions = structured_directions(sp) + [
        tuple(scalar(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(sp.dim_m))
        for _ in range(4)
    ]
    refuted = 0
    for metric in metrics:
        check = _direction_checker(sp, metric)
        for coords in directions:
            sol, rank_map, rank_aug = solve_compensator(sp, metric, coords)
            assert check(clear_denominators(coords)) == (
                sol is not None, rank_map, rank_aug
            )
            refuted += sol is None
    if space_id in dict(REFUTATION_CASES):
        assert refuted > 0


# -- the cached m-coordinate filters against the ambient reference ------------

def ambient_normalizer_filter(space, metric):
    """The normalizer filter as first written, in ambient coordinates."""
    L = space.algebra
    fixed = isotypic_decompose(space).trivial_subspace
    for w in fixed.rows:
        A = ad_on(L, w, space.m)
        if mat_mul(metric.matrix, A) != mat_mul(A, metric.matrix):
            return False
    return True


def ambient_biinvariance_filter(space, metric):
    """The bi-invariance filter as first written, in ambient coordinates."""
    p = isotypic_decompose(space).trivial_subspace
    if p.dim == 0:
        return True
    L = space.algebra
    if subalgebra_closure(L, p.rows) != p:
        raise ValueError("the fixed part of m is not a subalgebra")
    for r in p.rows:
        if not p.contains(metric.apply(r)):
            return False
    _center, ideals = ideal_decomposition(L, p)
    for ideal in ideals:
        if not all(ideal.contains(metric.apply(r)) for r in ideal.rows):
            return False
        if scalar_of(operator_on_subspace(metric.apply, ideal)) is None:
            return False
    return True


FIXED_PART_MATRICES = (
    [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
    [[2, 1, 0], [1, 2, 0], [0, 0, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 5]],
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
)


def filter_metrics(sp):
    """Standard, three block metrics (two of them mixed-radical), every
    fibration metric the space defines, and explicit metrics on a fixed
    part of dimension 1 or 3."""
    metrics = [standard_metric(sp)]
    k = len(isotypic_decompose(sp).components)
    if k >= 2:
        for pair in ((2, 1), (1 + SQRT2, 3), (2 - SQRT3, SQRT2)):
            metrics.append(metric_from_blocks(sp, pair + (1,) * (k - 2)))
    for name in ("hopf", "ngh", "sp1sp1"):
        for lam in (2, Fraction(1, 3), SQRT2):
            try:
                metrics.append(fibration_metric(sp, name, lam))
            except ValueError:
                break
    p_dim = isotypic_decompose(sp).trivial_subspace.dim
    blocks = {1: [[[7]]], 3: FIXED_PART_MATRICES}.get(p_dim, [])
    for p_mat in blocks:
        try:
            metrics.append(p_block_metric(sp, p_mat, rest_coeff=Fraction(1, 3)))
        except ValueError:
            pass
    return metrics


def filter_outcome(fn, sp, metric):
    try:
        return fn(sp, metric)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_filters_match_the_ambient_reference(space_id):
    # Two lemmas ride along.  Every validated metric maps the fixed part p
    # into p, which biinvariance_filter relies on without testing it: p is
    # the joint kernel of the ad(h_i)|_m, and M commutes with each of them.  And
    # normalizer_filter implies biinvariance_filter: M|_p then commutes with
    # ad(p)|_p, so it is a scalar on each absolutely irreducible, pairwise
    # non-isomorphic simple ideal of p.
    sp = catalog_space(space_id)
    p = isotypic_decompose(sp).trivial_subspace
    seen = set()
    for metric in filter_metrics(sp):
        assert all(p.contains(metric.apply(r)) for r in p.rows), metric.params
        outcomes = []
        for cached, ambient in (
            (normalizer_filter, ambient_normalizer_filter),
            (biinvariance_filter, ambient_biinvariance_filter),
        ):
            outcome = filter_outcome(cached, sp, metric)
            assert outcome == filter_outcome(ambient, sp, metric), (
                cached.__name__, metric.provenance, metric.params,
            )
            seen.add((cached.__name__, outcome))
            outcomes.append(outcome)
        if outcomes[0] is True:
            assert outcomes[1] is True, (metric.provenance, metric.params)
    if space_id == "c2.1":
        # Both filters accept and reject something on c2.1.
        assert seen == {
            (name, ok)
            for name in ("normalizer_filter", "biinvariance_filter")
            for ok in (True, False)
        }


def test_structured_directions_returns_a_fresh_list():
    sp = catalog_space("c2.2")
    first = structured_directions(sp)
    expected = list(first)
    first.clear()
    second = structured_directions(sp)
    assert second == expected and second is not first
    second.append(second[0])
    assert structured_directions(sp) == expected


# -- scalar metrics: decided by [cX, X] = 0 -----------------------------------

def scalar_metrics(sp):
    standard = standard_metric(sp)
    return [standard, standard.scaled(3), standard.scaled(SQRT2)]


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_the_checker_solves_every_direction_of_a_scalar_metric(space_id):
    # The identity the search's shortcut rests on: for M = cI the real
    # checker finds every direction solvable, on one int system (c * sqrt2
    # has one radical), and through the ambient solve on c2.3 and g2.4.
    import random as _random

    sp = catalog_space(space_id)
    rng = _random.Random(space_id)
    directions = [clear_denominators(d) for d in structured_directions(sp)] + [
        _random_direction(rng, sp.dim_m) for _ in range(20)
    ]
    for metric in scalar_metrics(sp):
        check = _direction_checker(sp, metric)
        assert all(check(coords)[0] for coords in directions), metric.params


@pytest.mark.parametrize("space_id", ["c2.2", "c2.3", "g2.4", "berger"])
def test_scalar_metric_search_counts_batch_and_draws(space_id, monkeypatch):
    # No checker is built for a scalar metric; every direction of the batch
    # and every draw still counts.
    def no_checker(*_args):
        raise AssertionError("a scalar metric reached the direction loop")

    monkeypatch.setattr(gocheck, "_direction_checker", no_checker)
    sp = catalog_space(space_id)
    batch = len(structured_directions(sp))
    for metric in scalar_metrics(sp):
        for k in (0, 7):
            for verdict in (
                go_sample_check(sp, metric, samples=k),
                find_witness(sp, metric, budget=k),
            ):
                assert verdict.status == "go_sampled"
                assert verdict.witness is None
                assert verdict.samples_run == batch + k


def test_nonscalar_metrics_near_the_identity_still_run_the_loop():
    sp = catalog_space("c2.2")

    def e(*ones):
        return tuple(scalar(int(i in ones)) for i in range(sp.dim_m))

    verdict = find_witness(sp, metric_from_blocks(sp, (2, 1)), budget=7)
    assert verdict.samples_run == 10
    assert verdict.witness == Witness(coords=e(0, 3), rank_map=2, rank_augmented=3)
    # A constant diagonal does not make a metric scalar: I + B/4, for a
    # commutant direction B with zero diagonal, is refuted by the loop.
    B = commutant_symmetric_basis(sp)[1]
    assert all(not B[i][i] for i in range(sp.dim_m))
    skew = explicit_metric(sp, [
        [a + Fraction(1, 4) * b for a, b in zip(row_i, row_b)]
        for row_i, row_b in zip(identity_matrix(sp.dim_m), B)
    ])
    verdict = find_witness(sp, skew, budget=7)
    assert verdict.samples_run == 4
    assert verdict.witness == Witness(coords=e(3), rank_map=2, rank_augmented=3)


def test_negative_draw_counts_are_rejected():
    sp = catalog_space("g2.3")
    metric = standard_metric(sp)
    with pytest.raises(ValueError, match="must be >= 0, got -5"):
        go_sample_check(sp, metric, samples=-5)
    with pytest.raises(ValueError, match="must be >= 0, got -2"):
        find_witness(sp, metric, budget=-2)


# -- metric-eigen directions: decided by [lambda X, X] = 0 ----------------------

EIGEN_BLOCKS = (
    (2, 1), (Fraction(1, 3), 1), (SQRT2, 1), (1 + SQRT2, 3), (2 - SQRT3, SQRT2),
)


def eigen_metrics(sp):
    """The standard metric times 1, 3 and sqrt2, the block metrics on
    two-component spaces, and the commutant probes of classify's
    candidates."""
    dec = isotypic_decompose(sp)
    metrics = scalar_metrics(sp)
    if len(dec.components) == 2:
        metrics += [metric_from_blocks(sp, c) for c in EIGEN_BLOCKS]
    metrics += [
        metric
        for label, metric in _candidate_metrics(sp, dec)
        if label["kind"] == "commutant_probe"
    ]
    return metrics


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_eigen_directions_are_solvable(space_id):
    # The labels of the search against M restricted to each component, on
    # Scalars; and every structured direction whose components share one
    # lambda is an eigenvector that both solvers find solvable.
    sp = catalog_space(space_id)
    components = isotypic_decompose(sp).components
    batch = gocheck.per_space(gocheck._build_structured, sp)
    decided = 0
    for metric in eigen_metrics(sp):
        lams = [
            scalar_of(operator_on_subspace(metric.apply, comp.subspace))
            for comp in components
        ]
        labels = metric.rows.eigen_labels(batch)
        assert [label is None for label in labels] == [lam is None for lam in lams]
        for k, j in product(range(len(lams)), repeat=2):
            if lams[k] is not None:
                assert (labels[k] == labels[j]) == (lams[k] == lams[j])
        check = _direction_checker(sp, metric)
        for coords, parts in zip(structured_directions(sp), batch.parts):
            lam = lams[min(parts)]
            if lam is None or any(lams[k] != lam for k in parts):
                continue
            decided += 1
            assert mat_apply(metric.matrix, coords) == tuple(lam * c for c in coords)
            assert check(clear_denominators(coords))[0], (metric.params, coords)
            sol, _, _ = solve_compensator(sp, metric, coords)
            assert sol is not None, (metric.params, coords)
    assert decided >= 3 * len(batch.parts)


def test_block_labels_match_scalar_on():
    # A per-component block metric reads its eigen labels off its
    # coefficients; its matrix, lifted with none, reads them by scalar_on.
    # On classify's block candidates, and on every ordered pair of the
    # refute sweep's coefficients, equal irrational pairs included.
    metrics = []
    for space_id in CATALOG_IDS:
        sp = catalog_space(space_id)
        metrics += [
            metric
            for label, metric in _candidate_metrics(sp, isotypic_decompose(sp))
            if label["kind"] == "blocks"
        ]
    for space_id in ("c2.2", "g2.1", "g2.2", "g2.3"):
        sp = catalog_space(space_id)
        metrics += [
            metric_from_blocks(sp, [parse_scalar(c) for c in pair])
            for pair in product(REFUTE_COEFFS, repeat=2)
        ]
    equal = 0
    for metric in metrics:
        batch = gocheck.per_space(gocheck._build_structured, metric.space)
        lifted = gocheck._MetricRows.lift(metric.matrix)
        assert metric.rows.coeffs is not None and lifted.coeffs is None
        labels = metric.rows.eigen_labels(batch)
        assert labels == lifted.eigen_labels(batch), metric.params
        equal += labels == [0, 0]
    # the 11 equal pairs on each of the four spaces, and (1, 1) on each
    # two-component space
    assert equal == 4 * len(REFUTE_COEFFS) + 8


def reference_verdict(sp, metric, draws, seed, apply_filters):
    """The search as a loop that checks every direction, scalar metrics
    and eigen directions included."""
    filters = gocheck._filter_results(sp, metric)
    out = {
        "status": "go_sampled",
        "seed": seed,
        "samples_run": 0,
        "witness": None,
        "filter_name": None,
        "filters": dict(filters),
    }
    if apply_filters:
        out["filter_name"] = next((n for n, ok in filters if not ok), None)
        if out["filter_name"] is not None:
            out["status"] = "filtered_out"
            return out
    rng = random.Random(seed)
    check = _direction_checker(sp, metric)
    for coords in chain(
        structured_directions(sp),
        (
            tuple(map(Scalar.from_int, _random_direction(rng, sp.dim_m)))
            for _ in range(draws)
        ),
    ):
        out["samples_run"] += 1
        solvable, rank_map, rank_aug = check(clear_denominators(coords))
        if not solvable:
            out["status"] = "not_go_certified"
            out["witness"] = Witness(coords, rank_map, rank_aug).to_dict()
            break
    return out


def assert_search_matches_reference(sp, metric, draws, seed):
    found = find_witness(sp, metric, budget=draws, seed=seed)
    assert found.to_dict(include_time=False) == reference_verdict(
        sp, metric, draws, seed, apply_filters=False
    ), metric.params
    sampled = go_sample_check(sp, metric, samples=draws, seed=seed)
    assert sampled.to_dict(include_time=False) == reference_verdict(
        sp, metric, draws, seed, apply_filters=True
    ), metric.params
    return found


REFUTE_COEFFS = (
    "1/2", "1", "2", "3", "5/3", "r2", "r3", "r5", "3/2*r6", "1+r2", "2-r3",
)


def test_search_matches_the_every_direction_loop_on_refutations():
    rng = random.Random(11)
    refuted = 0
    for i in range(60):
        sp = catalog_space(("c2.2", "g2.1", "g2.2", "g2.3")[i % 4])
        coeffs = rng.sample(REFUTE_COEFFS, 2)
        metric = metric_from_blocks(sp, [parse_scalar(c) for c in coeffs])
        found = assert_search_matches_reference(
            sp, metric, 50, rng.randrange(2**31)
        )
        refuted += found.witness is not None
    assert refuted == 60
    # Fixed block metrics with no random draw, and with a few.
    for space_id, coeffs in (
        ("c2.2", (2, 1)), ("g2.1", (2, 1)), ("g2.2", (1, 3)), ("g2.3", (2, 1)),
    ):
        sp = catalog_space(space_id)
        metric = metric_from_blocks(sp, coeffs)
        for draws, seed in ((0, 1), (7, 42)):
            assert_search_matches_reference(sp, metric, draws, seed)


def classify_candidates():
    for space_id in CATALOG_IDS:
        sp = catalog_space(space_id)
        dec = isotypic_decompose(sp)
        if dec.trivial_subspace == sp.m:
            continue
        if len(dec.components) == 1 and dec.invariant_metric_dim == 1:
            yield sp, standard_metric(sp)
        else:
            for _, metric in _candidate_metrics(sp, dec):
                yield sp, metric


def test_search_matches_the_every_direction_loop_on_classify_candidates():
    candidates = list(classify_candidates())
    assert len(candidates) == 64
    for sp, metric in candidates:
        assert_search_matches_reference(sp, metric, 12, 42)


def forget_family_record(monkeypatch, space):
    """Drop the space's two-block batch record (gocheck._two_block_batch),
    so that the next search of its family builds it again, through the
    checker.  An existing record is put back after the test."""
    monkeypatch.delitem(space.derived, gocheck._two_block_batch, raising=False)


def without_structured_batch(monkeypatch, space):
    """Search the space with an empty structured batch, and so an empty
    family record; both are put back after the test."""
    components = len(isotypic_decompose(space).components)
    empty = gocheck._Batch((), (), (), 0, components)
    monkeypatch.setitem(space.derived, gocheck._build_structured, empty)
    monkeypatch.setitem(space.derived, gocheck._two_block_batch, None)


def count_solvers(monkeypatch):
    """Record each call of the checker's int solver and of the ambient
    solve, by name."""
    calls = []
    for name in ("solve_int_columns", "solve_compensator"):
        original = getattr(gocheck, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(gocheck, name, counted)
    return calls


def test_eigen_directions_are_counted_but_not_checked(monkeypatch):
    # blocks (sqrt2, 1) on g2.3: components of dimensions 5 and 6.  The 11
    # basis vectors and the 4 sums within the first component are decided
    # by their lambda; the loop checks 3 cross sums, the last one refutes.
    # The loop runs where the family's batch record is built, at the first
    # search of the family; a second search reads the record and checks
    # nothing.
    calls = []

    def counting_checker(*args):
        check = _direction_checker(*args)

        def counted(coords):
            calls.append(coords)
            return check(coords)

        return counted

    monkeypatch.setattr(gocheck, "_direction_checker", counting_checker)
    sp = catalog_space("g2.3")
    forget_family_record(monkeypatch, sp)
    metric = metric_from_blocks(sp, (SQRT2, 1))
    verdict = find_witness(sp, metric, budget=50)
    assert len(calls) == 3
    assert verdict.samples_run == 18
    assert verdict.witness is not None
    assert list(calls[-1]) == clear_denominators(verdict.witness.coords)
    solved = count_solvers(monkeypatch)
    again = find_witness(sp, metric, budget=50, seed=1)
    assert (len(calls), solved) == (3, [])
    assert again.to_dict(include_time=False) == {
        **verdict.to_dict(include_time=False), "seed": 1
    }


# -- validation and the filters on the metric's lift ----------------------------

def reference_validated(space, matrix):
    """gocheck._validated as first written, on dense Scalar products: S M
    symmetric, M commuting with each ad(h_i)|_m, then S M positive
    definite.  Raises ValueError as the library does; returns None when the
    operator is accepted."""
    mat = [[scalar(x) for x in row] for row in matrix]
    S = m_gram(space)
    SM = mat_mul(S, mat)
    if SM != mat_transpose(SM):
        raise ValueError("metric operator is not symmetric for the invariant form")
    for a in space.h.rows:
        A = ad_on(space.algebra, a, space.m)
        if mat_mul(mat, A) != mat_mul(A, mat):
            raise ValueError("metric operator does not commute with the isotropy action")
    if not is_positive_definite(SM):
        raise ValueError("metric operator is not positive definite")


def validation_outcome(fn, space, matrix):
    try:
        fn(space, matrix)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def validation_cases(sp):
    """(label, matrix) pairs: accepted metrics, the commutant probes of
    classify at every step, and operators that break each check, alone and
    together."""
    n = sp.dim_m
    dec = isotypic_decompose(sp)
    ident = identity_matrix(n)
    cases = [("metric", m.matrix) for m in filter_metrics(sp)]
    cases += [
        ("probe", m.matrix)
        for label, m in _candidate_metrics(sp, dec)
        if label["kind"] == "commutant_probe"
    ]
    for B in commutant_symmetric_basis(sp):
        for step in COMMUTANT_PROBE_STEPS + ("-2",):
            cases.append((
                f"probe step {step}",
                mat_combine((1, parse_scalar(step)), (ident, B), n),
            ))

    def neg(M):
        return [[-x for x in row] for row in M]

    asymmetric = [list(row) for row in ident]
    asymmetric[0][1] = scalar(1)
    cases += [("asymmetric", asymmetric), ("asymmetric, negative", neg(asymmetric))]
    # E_uw + E_wu for the invariant form: X -> u <w, X> + w <u, X>, with u
    # and w basis vectors of two components (of one when there is one).
    rows = [
        sp.m.coords(r)
        for comp in dec.components
        for r in (comp.subspace.rows if len(dec.components) == 1
                  else comp.subspace.rows[:1])
    ]
    u, w = rows[0], rows[1]
    S = m_gram(sp)
    Su, Sw = mat_apply(S, u), mat_apply(S, w)
    swap = [
        [u[i] * Sw[j] + w[i] * Su[j] for j in range(n)] for i in range(n)
    ]
    cases += [
        ("not equivariant", swap),
        ("not equivariant, negative", mat_combine((-1, 1), (ident, swap), n)),
        ("not equivariant, near the identity",
         mat_combine((1, Fraction(1, 100)), (ident, swap), n)),
    ]
    projections = component_projections(sp)
    for coeffs in block_cases(sp):
        cases.append((f"blocks {coeffs}", mat_combine(coeffs, projections, n)))
    return cases


def block_cases(sp):
    """Per-component coefficient tuples: zero, negative and near-zero
    irrational coefficients in each place, and classify's lattice."""
    k = len(isotypic_decompose(sp).components)
    cases = [
        (coeffs + (1,) * k)[:k]
        for coeffs in (
            (-1, 1), (1, 0), (0, 1), (1 + SQRT2, 3), (2 - SQRT3, SQRT2),
            (1 - SQRT2, 3), (3, 1 - SQRT2), (SQRT3 - 2, SQRT2),
            (SQRT2, SQRT3 - 2),
        )
    ]
    cases += [
        (1,) + tuple(map(parse_scalar, tail))
        for tail in product(LATTICE, repeat=k - 1)
    ]
    return cases


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_validation_matches_the_dense_reference(space_id):
    sp = catalog_space(space_id)
    seen = set()
    for label, matrix in validation_cases(sp):
        outcome = validation_outcome(explicit_metric, sp, matrix)
        assert outcome == validation_outcome(reference_validated, sp, matrix), label
        seen.add(outcome)
    # A per-component block metric is accepted on the signs of its
    # coefficients alone, with the outcome of the dense checks.
    projections = component_projections(sp)
    for coeffs in block_cases(sp):
        matrix = mat_combine(coeffs, projections, sp.dim_m)
        outcome = validation_outcome(metric_from_blocks, sp, coeffs)
        assert outcome == validation_outcome(reference_validated, sp, matrix), coeffs
        if outcome == "accepted":
            assert metric_from_blocks(sp, coeffs).matrix == matrix
    expected = {
        "accepted",
        "metric operator is not symmetric for the invariant form",
        "metric operator does not commute with the isotropy action",
        "metric operator is not positive definite",
    }
    if isotypic_decompose(sp).trivial_subspace == sp.m:
        # h acts trivially on m: every operator commutes with it.
        expected.remove("metric operator does not commute with the isotropy action")
    assert seen == expected


def dense_lift(matrix, lift):
    """The lift as first written: every entry lifted, zeros included, then
    the zeros dropped."""
    values = lift([c for row in matrix for c in row])
    if values is None:
        return None
    n = len(matrix)
    return tuple(
        tuple((j, c) for j, c in enumerate(values[i * n:(i + 1) * n]) if c)
        for i in range(n)
    )


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_each_metric_keeps_its_own_lift(space_id):
    # A validated metric keeps the lift of its matrix; a per-component
    # block metric keeps its coefficients alone, and the same identities
    # hold for the lift of its matrix, as the checker makes it on demand.
    sp = catalog_space(space_id)
    for base in filter_metrics(sp):
        for metric in (base, base.scaled(3)):
            M = metric.matrix
            rational = all(c.is_rational for row in M for c in row)
            rows = metric.rows
            if rows.coeffs is not None:
                assert rows == gocheck._MetricRows(coeffs=rows.coeffs)
                assert rows.ring is None and rows.parts is None
                rows = gocheck._MetricRows.lift(M)
                assert rows.coeffs is None
            parts = rows.parts
            assert rows.ring == lift_rows(M) == dense_lift(M, ring_lift)
            assert (parts[0][0] == 0 and len(parts) == 1) == rational
            if rational:
                assert parts == ((0, int_rows(lift_rows(M))),)
                assert parts[0][1] == dense_lift(M, clear_denominators)
            assert [b for b, _ in parts] == sorted({b for b, _ in parts})
            assert all(v for _, rows in parts for row in rows for _, v in row)
            assert join_parts(parts, len(M)) == rows.ring


def join_parts(parts, n):
    """Ring rows from the parts (b, M_b) of a metric: the entry at (i, j)
    has coordinate v at radical b for each part with (j, v) in row i."""
    rows = []
    for i in range(n):
        entries = {}
        for b, part in parts:
            for j, v in part[i]:
                entries.setdefault(j, []).append((b, v))
        rows.append(tuple((j, tuple(entries[j])) for j in sorted(entries)))
    return tuple(rows)


def test_the_search_lifts_no_metric_again(monkeypatch):
    # Once a space's data is built, a search lifts nothing: each metric was
    # lifted at validation, the structured batch was cleared to ints with
    # the space's data, and the random draws are ints.
    cases = [
        ("g2.1", "blocks:r2,1"),
        ("c2.2", "blocks:2,1"),
        ("g2.3", "blocks:1+r2,3"),
        ("c2.1", "blocks:1/3,1"),
    ]
    metrics = []
    for space_id, spec in cases:
        sp = catalog_space(space_id)
        metric = metric_from_spec(sp, spec)
        find_witness(sp, metric)  # builds the per-space data
        # The family's batch record is built again below, through the
        # checker, and with no lift.
        forget_family_record(monkeypatch, sp)
        metrics.append((sp, metric))
    lifted = []
    for name in ("lift_rows", "clear_denominators"):
        original = getattr(gocheck, name)

        def recorded(values, *args, _name=name, _original=original):
            lifted.append(_name)
            return _original(values, *args)

        monkeypatch.setattr(gocheck, name, recorded)
    checked = []
    original_checker = gocheck._direction_checker

    def counting_checker(*args):
        check = original_checker(*args)

        def counted(x):
            checked.append(x)
            return check(x)

        return counted

    monkeypatch.setattr(gocheck, "_direction_checker", counting_checker)
    for sp, metric in metrics:
        find_witness(sp, metric)
        go_sample_check(sp, metric, samples=5)
    assert len(checked) > 10
    assert lifted == []
    # A search of a refuted family, once its record is built, builds no
    # checker at all.
    checked.clear()
    for sp, metric in metrics[:3]:
        assert find_witness(sp, metric).witness is not None
    assert checked == []


def test_no_block_metric_is_lifted_on_the_catalogue_paths(monkeypatch):
    # classify, run through the CLI, and the refute ops (find_witness, the
    # witness's dict round trip, verify_witness) lift only what _validated
    # lifts: the commutant probes.  No block metric is lifted, by its
    # builder or by the checker.
    from click.testing import CliRunner

    from rank2go.cli import main

    validating, lifted = [], []
    original_validated = gocheck._validated
    original_lift = gocheck._MetricRows.lift

    def validated(*args):
        validating.append(True)
        try:
            return original_validated(*args)
        finally:
            validating.pop()

    def recorded(cls, matrix):
        lifted.append(bool(validating))
        return original_lift(matrix)

    monkeypatch.setattr(gocheck, "_validated", validated)
    monkeypatch.setattr(gocheck._MetricRows, "lift", classmethod(recorded))
    result = CliRunner().invoke(main, ["classify", "a2.1", "c2.1", "c2.2"])
    assert result.exit_code == 0, result.output
    probes = len(lifted)
    assert probes and all(lifted)
    for space_id, spec in [
        ("c2.2", "blocks:2,1"), ("c2.2", "blocks:1,r2"), ("c2.2", "fib:hopf:1/2"),
        ("g2.1", "blocks:1/2,3"), ("g2.1", "blocks:1+r2,r3"), ("g2.1", "fib:ngh:2"),
    ]:
        sp = catalog_space(space_id)
        metric = metric_from_spec(sp, spec)
        verdict = find_witness(sp, metric, budget=20, seed=1)
        assert verdict.status == "not_go_certified", (space_id, spec)
        witness = Witness.from_dict(verdict.witness.to_dict())
        assert verify_witness(sp, metric, witness)
        assert verify_witness(sp, metric.scaled(3), witness)
    assert len(lifted) == probes


BUILDER_COEFFS = {
    "lattice": [("1", t) for t in LATTICE],
    "irrational": [("1", "r2"), ("1+r2", "r3"), ("r2", "2*r2"), ("2-r3", "3/2*r6")],
    "off_lattice": [("7/4", "1"), ("3", "5/3"), ("2/7", "11")],
}


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_the_block_builder_matches_mat_combine(space_id):
    # The sparse builder gives, entry for entry, the dense sum of the
    # projections that mat_combine gives, and scaled(c) gives c times the
    # matrix.  Each set is cut or padded with 1s to one coefficient per
    # component.
    sp = catalog_space(space_id)
    projections = component_projections(sp)
    k = len(projections)
    for kind, sets in BUILDER_COEFFS.items():
        for texts in sets:
            cs = [parse_scalar(t) for t in (texts + ("1",) * k)[:k]]
            want = mat_combine(cs, projections, sp.dim_m)
            assert gocheck._block_matrix(sp, cs) == want, (kind, texts)
            metric = metric_from_blocks(sp, cs)
            assert metric.matrix == want, (kind, texts)
            for c in ("3", "1/2", "r2"):
                scaled = metric.scaled(parse_scalar(c))
                assert scaled.matrix == mat_scale(parse_scalar(c), want), (texts, c)
                assert scaled.rows.coeffs == tuple(parse_scalar(c) * x for x in cs)


def test_only_a_refuting_draw_builds_scalars(monkeypatch):
    # After the per-space data is built, a search that refutes nothing
    # builds no Scalar however many directions it checks, and a witness
    # found by a random draw builds one Scalar per coordinate.
    go_space, refuted_space = catalog_space("c2.1"), catalog_space("c2.2")
    go_metric = metric_from_spec(go_space, "blocks:1/3,1")
    refuted_metric = metric_from_spec(refuted_space, "blocks:2,1")
    assert go_sample_check(go_space, go_metric, samples=5).status == "go_sampled"
    assert find_witness(refuted_space, refuted_metric).witness is not None
    # A Scalar is built by its checked __init__ or by one of field's two
    # private constructors (tests/test_ring_layering.py keeps it so); all
    # three are counted.
    built = []
    original = Scalar.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted)
    for name in ("_rational", "_reduced"):
        builder = getattr(field, name)
        monkeypatch.setattr(
            field, name, lambda *args, f=builder: built.append(args) or f(*args)
        )
    verdict = go_sample_check(go_space, go_metric, samples=50, seed=7)
    assert verdict.status == "go_sampled" and verdict.samples_run > 50
    assert built == []
    without_structured_batch(monkeypatch, refuted_space)
    verdict = find_witness(refuted_space, refuted_metric, budget=50, seed=1)
    assert verdict.samples_run == 1
    assert len(built) == refuted_space.dim_m


def test_the_invariance_data_is_lifted_once_per_space(monkeypatch):
    # ad(h_i)|_m and the Gram matrix S of m have one lift per space, which
    # casimir, validation and the direction search all read.  Fresh space
    # objects miss every per-space cache.
    from rank2go import liealg

    lifted = []
    original = liealg.lift_rows

    def recorded(mat, *args):
        mat = [list(row) for row in mat]
        lifted.append(mat)
        return original(mat, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("rank2go") and getattr(module, "lift_rows", None) is original:
            monkeypatch.setattr(module, "lift_rows", recorded)

    def holds(mat, block):
        return any(
            mat[k:k + len(block)] == block for k in range(len(mat) - len(block) + 1)
        )

    for space_id in ("c2.2", "g2.3"):
        sp = catalog_space.__wrapped__(space_id)
        lifted.clear()
        casimir(sp)
        metrics = [standard_metric(sp), metric_from_spec(sp, "blocks:2,1")]
        assert find_witness(sp, metrics[1]).witness is not None
        L = sp.algebra
        S = gram_matrix(L, sp.m.rows)
        assert all(S != metric.matrix for metric in metrics)
        assert sum(mat == S for mat in lifted) == 1, space_id
        for a in sp.h.rows:
            A = ad_on(L, a, sp.m)
            assert sum(holds(mat, A) for mat in lifted) == 1, space_id


def test_metric_build_and_search_make_no_dense_product(monkeypatch):
    # metric_from_spec and find_witness of a block metric, a named
    # fibration metric among them, run on the lift and on per-space ring
    # rows only.  verify_witness is not measured: it
    # replays the witness through the ambient solve_compensator on Scalars,
    # independently of the search, by design.
    from rank2go import liealg

    cases = [
        ("g2.1", "blocks:r2,1"), ("c2.2", "blocks:2,1"), ("c2.2", "fib:ngh:2"),
        ("g2.2", "fib:ngh:1/3"),
    ]
    for space_id, spec in cases:
        sp = catalog_space(space_id)
        find_witness(sp, metric_from_spec(sp, spec))  # builds per-space data
    calls = []
    modules = [
        module for name, module in sys.modules.items()
        if module is not None and name.startswith("rank2go")
    ]
    for name in ("mat_mul", "mat_apply"):
        original = getattr(liealg, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for space_id, spec in cases:
        sp = catalog_space(space_id)
        verdict = find_witness(sp, metric_from_spec(sp, spec))
        assert verdict.witness is not None
    assert calls == []


def test_scalar_metric_checks_build_no_bracket_table(monkeypatch):
    # Validation reads ad(h_i)|_m from their one per-space source, and a
    # scalar metric builds no direction system, so the bracket table of
    # m x m (gocheck._int_tensors) is never built for it.  Fresh space
    # objects miss every per-space cache.
    built = []
    original = gocheck._int_tensors

    def recorded(space):
        built.append(space.space_id)
        return original(space)

    monkeypatch.setattr(gocheck, "_int_tensors", recorded)
    for space_id in ("g2.4", "c2.3"):
        sp = catalog_space.__wrapped__(space_id)
        verdict = go_sample_check(sp, standard_metric(sp), samples=20, seed=3)
        assert verdict.status == gocheck.STATUS_GO_SAMPLED
        assert verdict.samples_run > 0
    assert built == []
    # A metric that needs direction systems builds the table once.
    sp = catalog_space.__wrapped__("c2.2")
    find_witness(sp, metric_from_spec(sp, "blocks:2,1"))
    find_witness(sp, metric_from_spec(sp, "blocks:3,1"))
    assert built == ["c2.2"]


def test_block_metrics_are_decided_by_their_coefficients(monkeypatch):
    # A per-component block metric is validated by the signs of its
    # coefficients, labelled by them, and passes both filters with no test
    # (the lemma of the gocheck docstring): building it and searching it
    # runs no Sylvester test, no commutation test and no scalar_on.  Any
    # other reading of an operator runs all three.  c2.2 and g2.1 both
    # have a fixed part, and g2.1's has a simple ideal.
    spaces = [catalog_space(space_id) for space_id in ("c2.2", "g2.1")]
    for sp in spaces:
        find_witness(sp, metric_from_blocks(sp, (2, 1)))  # per-space data
    c21 = catalog_space("c2.1")
    commutant_coeffs = commutant_coordinates(c21, identity_matrix(c21.dim_m))
    commutant_coeffs[0] += scalar(Fraction(1, 8))
    find_witness(c21, standard_metric(c21))
    calls = []
    for owner, name in (
        (gocheck, "is_positive_definite"),
        (gocheck, "ring_rows_commute"),
        (gocheck._MetricRows, "scalar_on"),
    ):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    every = {"is_positive_definite", "ring_rows_commute", "scalar_on"}
    for sp in spaces:
        metric = metric_from_blocks(sp, (SQRT2, 1))
        assert find_witness(sp, metric).witness is not None
        assert calls == [], sp.space_id
        explicit = explicit_metric(sp, metric.matrix)
        assert find_witness(sp, explicit).witness is not None
        assert set(calls) == every, sp.space_id
        calls.clear()
    metric = metric_from_blocks(c21, commutant_coeffs)
    assert metric.rows.coeffs is None
    find_witness(c21, metric)
    assert set(calls) == every


# -- irrational metrics on rational spaces: one rational system per space ------

GO_FAMILY_SPACES = ("a2.1", "c2.1", "berger", "cp3")
IRRATIONAL_BLOCK_SPACES = ("c2.2", "g2.1", "g2.2", "g2.3") + GO_FAMILY_SPACES
IRRATIONAL_BLOCKS = (
    ("1", "r2"), ("1+r2", "r3"), ("r2", "2*r2"), ("2-r3", "3/2*r6"),
)


def irrational_block_metrics(sp):
    for coeffs in IRRATIONAL_BLOCKS:
        cs = [parse_scalar(c) for c in coeffs]
        yield coeffs, cs, metric_from_blocks(sp, cs)


@pytest.mark.parametrize("space_id", IRRATIONAL_BLOCK_SPACES)
def test_two_block_lemma_matches_solve_compensator(space_id):
    # The checker decides every two-block metric of a space on the system
    # of P_0 + 2 P_1 (the lemma of gocheck.two_block_family).  Direction by
    # direction, on the structured batch and 20 seeded draws, the checker
    # of each irrational block metric gives the decision and the rank pair
    # that solve_compensator gives under the metric itself.
    sp = catalog_space(space_id)
    rng = random.Random(space_id)
    directions = structured_directions(sp) + [
        tuple(map(Scalar.from_int, _random_direction(rng, sp.dim_m)))
        for _ in range(20)
    ]
    refuted = 0
    for coeffs, cs, metric in irrational_block_metrics(sp):
        radicals = sorted({b for c in ring_lift(cs) for b, _ in c})
        assert metric.rows.parts is None
        lifted = gocheck._MetricRows.lift(metric.matrix)
        assert [b for b, _ in lifted.parts] == radicals, coeffs
        assert two_block_family(sp, metric), coeffs
        check = _direction_checker(sp, metric)
        for coords in directions:
            sol, rank_map, rank_aug = solve_compensator(sp, metric, coords)
            refuted += sol is None
            assert check(clear_denominators(coords)) == (
                sol is not None, rank_map, rank_aug
            ), (coeffs, coords)
    # Every space but the four GO-family ones refutes some direction.
    assert (refuted == 0) == (space_id in GO_FAMILY_SPACES)
    # The normal metric, c_0 = c_1, lies outside the family: its checker
    # keeps its own rows and compensates every direction.
    standard = standard_metric(sp)
    assert not two_block_family(sp, standard)
    check = _direction_checker(sp, standard)
    assert all(check(clear_denominators(coords))[0] for coords in directions)


@pytest.mark.parametrize("space_id", ["c2.2", "g2.1"])
def test_a_block_metric_outside_the_family_is_lifted_on_demand(
    space_id, monkeypatch
):
    # A block metric that two_block_family does not claim keeps no lift:
    # the checker lifts its matrix, decides a one-radical metric on those
    # rows and any other by solve_compensator, never on the rows of
    # P_0 + 2 P_1.  Forced out of the family here, as no catalogued space
    # has three components; (2, 2) lies outside it anyway.  Direction by
    # direction, on the structured batch and 20 seeded draws, each gives
    # the decision and the rank pair of solve_compensator.
    sp = catalog_space(space_id)
    rng = random.Random(space_id)
    directions = structured_directions(sp) + [
        tuple(map(Scalar.from_int, _random_direction(rng, sp.dim_m)))
        for _ in range(20)
    ]
    calls = {"lift": 0, "_two_block_rows": 0, "solve_compensator": 0}
    original_lift = gocheck._MetricRows.lift
    original_rows = gocheck._two_block_rows
    original_solve = gocheck.solve_compensator

    def lift(cls, matrix):
        calls["lift"] += 1
        return original_lift(matrix)

    def rows(space):
        calls["_two_block_rows"] += 1
        return original_rows(space)

    def solve(*args):
        calls["solve_compensator"] += 1
        return original_solve(*args)

    monkeypatch.setattr(gocheck, "two_block_family", lambda space, metric: False)
    monkeypatch.setattr(gocheck._MetricRows, "lift", classmethod(lift))
    monkeypatch.setattr(gocheck, "_two_block_rows", rows)
    refuted = 0
    for spec, ambient in (("blocks:1,2", False), ("blocks:1,r2", True),
                          ("blocks:2,2", False)):
        metric = metric_from_spec(sp, spec)
        assert metric.rows.parts is None
        calls["lift"] = 0
        check = _direction_checker(sp, metric)
        assert calls["lift"] == 1, spec
        answers = []
        for coords in directions:
            sol, rank_map, rank_aug = solve_compensator(sp, metric, coords)
            refuted += sol is None
            answers.append((sol is not None, rank_map, rank_aug))
        monkeypatch.setattr(gocheck, "solve_compensator", solve)
        calls["solve_compensator"] = 0
        assert [check(clear_denominators(c)) for c in directions] == answers, spec
        assert calls["solve_compensator"] == (len(directions) if ambient else 0)
        monkeypatch.setattr(gocheck, "solve_compensator", original_solve)
    assert calls["_two_block_rows"] == 0
    assert refuted


def test_rational_spaces_never_call_solve_compensator(monkeypatch):
    # The searches of irrational block metrics on the eight rational
    # spaces build the one rational system of P_0 + 2 P_1 once per space
    # and never call the ambient solve; only the checkers of c2.3 and
    # g2.4, whose h is irrational, fall back to it.
    calls = {"solve_compensator": 0, "_two_block_rows": []}
    original_solve = gocheck.solve_compensator
    original_rows = gocheck._two_block_rows

    def counted_solve(*args):
        calls["solve_compensator"] += 1
        return original_solve(*args)

    def counted_rows(space):
        calls["_two_block_rows"].append(space.space_id)
        return original_rows(space)

    monkeypatch.setattr(gocheck, "solve_compensator", counted_solve)
    monkeypatch.setattr(gocheck, "_two_block_rows", counted_rows)
    for space_id in IRRATIONAL_BLOCK_SPACES:
        sp = catalog_space(space_id)
        forget_family_record(monkeypatch, sp)
        for _, _, metric in irrational_block_metrics(sp):
            find_witness(sp, metric, budget=10, seed=3)
            go_sample_check(sp, metric, samples=10, seed=3)
    assert calls["solve_compensator"] == 0
    assert calls["_two_block_rows"] == list(IRRATIONAL_BLOCK_SPACES)
    for space_id in ("c2.3", "g2.4"):
        sp = catalog_space(space_id)
        check = _direction_checker(sp, standard_metric(sp))
        assert check(clear_denominators(structured_directions(sp)[0]))[0]
    assert calls["solve_compensator"] == 2


@pytest.mark.parametrize("space_id", ["c2.1", "c2.2", "g2.1", "g2.3"])
def test_a_block_metric_in_commutant_coordinates_takes_the_ambient_solve(
    space_id, monkeypatch
):
    # (1, sqrt2) written on the commutant basis is no block metric to the
    # checker: its lift has two radical parts, so each direction goes to
    # solve_compensator.  It gets the verdicts of blocks:1,r2.
    sp = catalog_space(space_id)
    blocks = metric_from_spec(sp, "blocks:1,r2")
    coeffs = commutant_coordinates(sp, blocks.matrix)
    assert len(coeffs) > 2
    commutant = metric_from_blocks(sp, coeffs)
    assert commutant.matrix == blocks.matrix
    assert commutant.rows.coeffs is None and len(commutant.rows.parts) == 2
    assert not two_block_family(sp, commutant)
    calls = []
    original = gocheck.solve_compensator

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(gocheck, "solve_compensator", counted)
    for search in (go_sample_check, find_witness):
        for seed in (42, 7):
            want = search(sp, blocks, seed=seed).to_dict(include_time=False)
            assert calls == []
            got = search(sp, commutant, seed=seed).to_dict(include_time=False)
            assert got == want, (search.__name__, seed)
            assert calls and set(map(id, calls)) == {id(commutant)}
            calls.clear()


def assert_cleared_on_its_own(batch):
    assert len(batch.ints) == len(batch.directions) == len(batch.parts)
    assert len(batch.ints) == batch.singles * (batch.singles + 1) // 2
    assert all(len(parts) == 1 for parts in batch.parts[:batch.singles])
    for coords, x in zip(batch.directions, batch.ints):
        assert all(type(v) is int for v in x)
        p = next(j for j, c in enumerate(coords) if c)
        ratio = scalar(x[p]) / coords[p]
        assert ratio.is_rational and ratio.sign() > 0, coords
        assert [scalar(v) for v in x] == [ratio * c for c in coords], coords


def rescaled_decomposition(sp, factors):
    """The isotypic components of sp, as _build_structured reads them, with
    the i-th basis vector of m multiplied by factors[i]."""
    factors = iter(factors)
    return SimpleNamespace(components=[
        SimpleNamespace(subspace=SimpleNamespace(rows=[
            tuple(c * f for c in row)
            for row, f in zip(comp.subspace.rows, factors)
        ]))
        for comp in isotypic_decompose(sp).components
    ])


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_each_batch_direction_is_cleared_on_its_own(space_id, monkeypatch):
    # The ints the search checks are a positive multiple of each structured
    # direction itself, the pairwise sums included; the basis vectors lead,
    # one component each.  The catalogue's basis vectors share their
    # denominators, so the batch is built again with the i-th basis vector
    # scaled by 1 / (i + 2): a sum of two cleared basis vectors is then no
    # multiple of their sum.  An irrational direction is refused.
    sp = catalog_space(space_id)
    assert_cleared_on_its_own(gocheck.per_space(gocheck._build_structured, sp))
    scaled = rescaled_decomposition(
        sp, [Fraction(1, i + 2) for i in range(sp.dim_m)]
    )
    irrational = rescaled_decomposition(sp, [SQRT2] * sp.dim_m)
    monkeypatch.setattr(gocheck, "isotypic_decompose", lambda space: scaled)
    assert_cleared_on_its_own(gocheck._build_structured(sp))
    monkeypatch.setattr(gocheck, "isotypic_decompose", lambda space: irrational)
    with pytest.raises(ArithmeticError, match="irrational"):
        gocheck._build_structured(sp)


RANDOM_DRAW_WITNESSES = {
    1: (-5, -7, -1, -6, 7, 6, 7),
    2: (-8, -7, -7, 3, -4, 1, -1),
    42: (-6, -9, -1, -2, -2, -5, -6),
}


@pytest.mark.parametrize("seed", sorted(RANDOM_DRAW_WITNESSES))
def test_a_random_draw_witness(seed, monkeypatch):
    # With no structured batch, blocks (2, 1) on c2.2 is refuted by its
    # first random draw.  The witnesses were recorded when the draws were
    # Scalars; they pin the seeded stream of digits and the witness built
    # from a draw.
    sp = catalog_space("c2.2")
    without_structured_batch(monkeypatch, sp)
    metric = metric_from_spec(sp, "blocks:2,1")
    verdict = find_witness(sp, metric, budget=50, seed=seed)
    suffix = " + 0*r2 + 0*r3 + 0*r5 + 0*r6 + 0*r10 + 0*r15 + 0*r30"
    assert verdict.to_dict(include_time=False) == {
        "status": "not_go_certified",
        "seed": seed,
        "samples_run": 1,
        "witness": {
            "coords": [f"{k}{suffix}" for k in RANDOM_DRAW_WITNESSES[seed]],
            "rank_map": 3,
            "rank_augmented": 4,
        },
        "filter_name": None,
        "filters": {"normalizer": True, "biinvariance": True},
    }
    assert verify_witness(sp, metric, verdict.witness)


def test_irrational_block_verdicts_match_the_golden_hash():
    # The classify golden hashes cover rational metrics only.  These
    # verdicts, refutations on c2.2 and g2.1-g2.3 and sampled GO verdicts on
    # the four spaces with a non-normal GO family, were recorded when every
    # irrational metric built its systems on ring rows.
    verdicts = []
    for space_id in IRRATIONAL_BLOCK_SPACES:
        sp = catalog_space(space_id)
        expected = "go_sampled" if space_id in GO_FAMILY_SPACES else (
            "not_go_certified"
        )
        for coeffs, _, metric in irrational_block_metrics(sp):
            found = find_witness(sp, metric, budget=20, seed=5)
            sampled = go_sample_check(sp, metric, samples=20, seed=5)
            assert found.status == sampled.status == expected, (space_id, coeffs)
            verdicts.append([
                space_id,
                list(coeffs),
                found.to_dict(include_time=False),
                sampled.to_dict(include_time=False),
            ])
    text = json.dumps(verdicts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bb219988777a00fece161fefa4c02b8084b516e95c5e4edc0692dd7e5e2963a2"
    )


def test_the_search_and_the_replay_share_no_elimination(monkeypatch):
    # The direction search decides each system on its column vectors, by
    # liealg._reduce_columns; verify_witness replays a witness through
    # solve_columns, on the rows of [C | r], by liealg._reduce and
    # _eliminate.  Neither reaches the other's elimination, so the replay
    # checks the search independently.
    from rank2go import liealg

    g21, c22 = catalog_space("g2.1"), catalog_space("c2.2")
    candidate = next(
        metric for label, metric in _candidate_metrics(g21, isotypic_decompose(g21))
        if label["kind"] == "blocks" and len(set(label["coeffs"])) > 1
    )
    irrational = metric_from_spec(c22, "blocks:1,r2")
    assert irrational.rows.parts is None
    assert len(gocheck._MetricRows.lift(irrational.matrix).parts) == 2
    searches = [(g21, candidate), (c22, irrational)]
    for sp, metric in searches:
        go_sample_check(sp, metric)  # builds the per-space data
    calls = []
    for name in ("_eliminate", "_reduce", "_reduce_columns"):
        original = getattr(liealg, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(liealg, name, counted)
    for sp, metric in searches:
        # The family's batch record is built again, by the checker.
        forget_family_record(monkeypatch, sp)
        calls.clear()
        verdict = go_sample_check(sp, metric)
        assert verdict.status == "not_go_certified"
        assert calls and set(calls) == {"_reduce_columns"}
        # A second search reads the record and eliminates nothing.
        calls.clear()
        again = go_sample_check(sp, metric)
        assert again.to_dict(include_time=False) == verdict.to_dict(
            include_time=False
        )
        assert calls == []
        assert verify_witness(sp, metric, verdict.witness)
        assert set(calls) == {"_reduce", "_eliminate"}


# -- the scaling lemma: one verdict per two-block family -----------------------

TWO_BLOCK_SPACES = (
    "a2.1", "c2.1", "c2.2", "g2.1", "g2.2", "g2.3", "berger", "cp3",
)
# Four lattice values of classify, four values off the lattice (two of them
# irrational) and one pair with no coefficient 1.
FAMILY_PAIRS = tuple(
    [("1", t) for t in ("1/3", "1/2", "2", "5", "7/4", "r2", "1+r2", "3/2*r6")]
    + [("3", "r5")]
)


def test_scaled_block_metric_keeps_its_coefficients(monkeypatch):
    # c (c_0 P_0 + c_1 P_1) is again a per-component block metric: scaling
    # runs no Sylvester test and keeps the family's coefficients.  Any other
    # metric is validated again.
    sp = catalog_space("c2.2")
    metric = metric_from_blocks(sp, (2, 1))
    other = explicit_metric(sp, metric.matrix)
    calls = []

    def counted(*args, _original=gocheck.is_positive_definite):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(gocheck, "is_positive_definite", counted)
    scaled = metric.scaled(3)
    assert calls == []
    assert scaled.rows.coeffs == (scalar(6), scalar(3))
    assert scaled.matrix == mat_scale(3, metric.matrix)
    assert scaled.rows == gocheck._MetricRows(coeffs=(scalar(6), scalar(3)))
    assert scaled.params == metric.params + (scalar(3).exact_str(),)
    assert scaled.provenance == metric.provenance
    assert scaled.rows.coeffs == metric_from_blocks(sp, (6, 3)).rows.coeffs
    assert other.scaled(3).rows.coeffs is None
    assert calls == [1]


@pytest.mark.parametrize("space_id", TWO_BLOCK_SPACES)
def test_the_premise_holds_as_brackets_into_the_second_block(space_id):
    sp = catalog_space(space_id)
    v0, v1 = (c.subspace for c in isotypic_decompose(sp).components)
    brackets = [sp.algebra.bracket(x, y) for x in v0.rows for y in v1.rows]
    assert all(v1.contains(b) for b in brackets)
    assert not all(v0.contains(b) for b in brackets)
    assert gocheck._fiber_index(sp) == 0


def planted_fiber_index(monkeypatch, a, b):
    """_fiber_index on a stand-in space of su(2) whose two components are
    the spans of a and of b."""
    L = su2()
    pair = [Subspace.from_vectors(3, vecs) for vecs in (a, b)]
    monkeypatch.setattr(gocheck, "isotypic_decompose", lambda space: SimpleNamespace(
        components=[SimpleNamespace(subspace=v) for v in pair]
    ))
    return gocheck._fiber_index(SimpleNamespace(algebra=L))


def test_the_premise_fails_on_a_planted_pair(monkeypatch):
    # In su(2), [iH, F] = 2G lies in neither span(iH) nor span(F); it lies
    # in span(F, G), in either order of the two blocks.
    h, f, g = (unit_vector(3, i) for i in range(3))
    assert planted_fiber_index(monkeypatch, [h], [f]) is None
    assert planted_fiber_index(monkeypatch, [h], [f, g]) == 0
    assert planted_fiber_index(monkeypatch, [f, g], [h]) == 1


# h + V_f against the subalgebras the metric grammar names; on g2.3 it is
# the su(3) of the long roots, checked below.
FIBER_NAMES = {
    "a2.1": ("ngh",), "c2.1": ("ngh", "sp1sp1"), "c2.2": ("ngh",),
    "g2.1": ("ngh",), "g2.2": ("ngh",), "g2.3": (), "berger": ("ngh",),
    "cp3": ("sp1sp1",),
}


def resolved_fiber_subalgebra(space, name):
    """K of a grammar name, computed independently of fibration_metric for
    "ngh": the normalizer of h over all of g."""
    if name == "ngh":
        return normalizer(space.algebra, space.h)
    return named_subalgebra(space, name)


@pytest.mark.parametrize("space_id", TWO_BLOCK_SPACES)
def test_the_fiber_block_closes_and_splits(space_id):
    # h + V_f is a subalgebra, whose fiber is V_f and whose complement is
    # V_(1-f).
    sp = catalog_space(space_id)
    f = gocheck._fiber_index(sp)
    blocks = [c.subspace for c in isotypic_decompose(sp).components]
    K = sp.h.add(blocks[f])
    assert subalgebra_closure(sp.algebra, K.rows) == K
    assert K.intersection(sp.m) == blocks[f]
    assert orth_complement(sp.algebra, K) == blocks[1 - f]
    for name in FIBER_NAMES[space_id]:
        assert resolved_fiber_subalgebra(sp, name) == K
    if space_id == "g2.3":
        cf = sp.compact
        L = cf.algebra
        su3 = Subspace.from_vectors(
            cf.dim, [L.basis_vector("iH[a]"), L.basis_vector("iH[b]")]
        )
        for root in ((0, 1), (3, 1), (3, 2)):  # the long positive roots
            su3 = su3.add(cf.root_space(root))
        assert K == su3 and K.dim == 8


@pytest.mark.parametrize("space_id", TWO_BLOCK_SPACES)
def test_the_hopf_metric_is_the_block_metric_on_the_fiber(space_id):
    sp = catalog_space(space_id)
    f = gocheck._fiber_index(sp)
    for lam in (2, Fraction(1, 3), SQRT2, 5):
        coeffs = [1, 1]
        coeffs[f] = lam
        hopf = fibration_metric(sp, "hopf", lam)
        assert hopf.matrix == metric_from_blocks(sp, coeffs).matrix
        params = ("hopf", scalar(lam).exact_str())
        assert (hopf.provenance, hopf.params) == ("fibration", params)


def test_hopf_resolves_only_on_two_block_spaces():
    # "hopf" is read off the decomposition, never resolved as a name.
    for space_id in CATALOG_IDS:
        sp = catalog_space(space_id)
        with pytest.raises(ValueError, match="unknown subalgebra name"):
            named_subalgebra(sp, "hopf")
        if space_id in TWO_BLOCK_SPACES:
            continue
        assert gocheck._fiber_index(sp) is None
        with pytest.raises(ValueError, match="no canonical fibration subalgebra"):
            fibration_metric(sp, "hopf", 2)


# Where the normalizer of h is a proper intermediate subalgebra.
NGH_SPACES = ("a2.1", "c2.1", "c2.2", "g2.1", "g2.2", "berger")


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_ngh_scales_the_normalizer_of_h(space_id):
    # The oracle is the normalizer N of h over all of g: fib:ngh resolves
    # exactly where 0 < dim(N intersect m) < dim m, and is then lam on the
    # fiber N intersect m and 1 on its complement in m.
    sp = catalog_space(space_id)
    N = normalizer(sp.algebra, sp.h)
    fiber, base = N.intersection(sp.m), orth_complement(sp.algebra, N)
    assert fiber.dim + base.dim == sp.dim_m
    resolves = 0 < fiber.dim < sp.dim_m
    assert resolves == (space_id in NGH_SPACES)
    if not resolves:
        with pytest.raises(
            ValueError,
            match="^normalizer of h is not a proper intermediate "
            f"subalgebra for {space_id}$",
        ):
            fibration_metric(sp, "ngh", 2)
        return
    for lam in (scalar(2), scalar(Fraction(1, 3)), SQRT2):
        M = fibration_metric(sp, "ngh", lam).matrix
        for rows, c in ((fiber.rows, lam), (base.rows, scalar(1))):
            for v in rows:
                x = sp.m.coords(v)
                assert list(mat_apply(M, x)) == [c * t for t in x]


def test_ngh_and_hopf_resolve_no_subalgebra(monkeypatch):
    # Both fibers are read off the decomposition: building fib:ngh and
    # fib:hopf computes no normalizer, resolves no name and closes no span.
    from rank2go import embed, liealg

    spaces = [catalog_space(space_id) for space_id in NGH_SPACES]
    for sp in spaces:
        standard_metric(sp)  # the decomposition and its projections
    calls = []

    def spy(name, real):
        def record(*args):
            calls.append(name)
            return real(*args)
        return record

    for module in (liealg, embed, gocheck):
        for name in ("normalizer", "named_subalgebra", "subalgebra_closure"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for sp in spaces:
        for name in ("ngh", "hopf"):
            metric = metric_from_spec(sp, f"fib:{name}:2")
            assert (metric.provenance, metric.params[0]) == ("fibration", name)
    assert calls == []


@pytest.mark.parametrize("space_id", TWO_BLOCK_SPACES)
def test_every_two_block_metric_decides_each_direction_alike(space_id):
    # The lemma of gocheck.two_block_family, direction by direction: the
    # structured batch and 40 seeded draws get one (solvable, rank_map,
    # rank_augmented) under every pair of distinct block coefficients.
    sp = catalog_space(space_id)
    rng = random.Random(7)
    directions = list(gocheck.per_space(gocheck._build_structured, sp).ints)
    directions += [_random_direction(rng, sp.dim_m) for _ in range(40)]
    results = set()
    for pair in FAMILY_PAIRS:
        metric = metric_from_blocks(sp, [parse_scalar(c) for c in pair])
        assert gocheck.two_block_family(sp, metric)
        check = _direction_checker(sp, metric)
        results.add(tuple(check(x) for x in directions))
    assert len(results) == 1
    assert not gocheck.two_block_family(sp, metric_from_blocks(sp, (2, 2)))
    assert not gocheck.two_block_family(sp, explicit_metric(sp, metric.matrix))


# -- the batch record of a two-block family -------------------------------------

def family_verdicts(sp, metrics):
    """Every verdict of both entry points, with 30 random draws, at seeds 7
    and 42, by metric."""
    return {
        (metric.params, search.__name__, seed): search(sp, metric, 30, seed).to_dict(
            include_time=False
        )
        for metric in metrics
        for search in (find_witness, go_sample_check)
        for seed in (7, 42)
    }


@pytest.mark.parametrize("space_id", TWO_BLOCK_SPACES)
def test_the_family_record_gives_the_unrecorded_verdicts(space_id, monkeypatch):
    # The batch of every two_block_family metric is decided once per space,
    # on P_0 + 2 P_1 (gocheck._two_block_batch).  Each member's verdict is
    # the one its own search gives with no record and on its own rows:
    # two_block_family forced to False.  The record is built by the first
    # member searched, in both orders of the members.
    sp = catalog_space(space_id)
    metrics = [
        metric_from_blocks(sp, [parse_scalar(c) for c in pair])
        for pair in FAMILY_PAIRS
    ]
    recorded = []
    for order in (metrics, metrics[::-1]):
        forget_family_record(monkeypatch, sp)
        recorded.append(family_verdicts(sp, order))
    with monkeypatch.context() as unrecorded:
        unrecorded.setattr(gocheck, "two_block_family", lambda space, metric: False)
        expected = family_verdicts(sp, metrics)
    assert recorded[0] == recorded[1] == expected
    refuted = {v["status"] == "not_go_certified" for v in expected.values()}
    assert refuted == {space_id not in GO_FAMILY_SPACES}


@pytest.mark.parametrize("space_id", GO_FAMILY_SPACES)
def test_a_go_family_checks_its_seeded_draws_on_every_search(space_id, monkeypatch):
    # A family whose batch refutes nothing keeps an empty record, and each
    # search of a member checks its own seeded draws: all of them, one
    # int solve each, and no batch direction.
    sp = catalog_space(space_id)
    metrics = [metric_from_blocks(sp, cs) for cs in ((1, 2), (3, 1), (SQRT2, 1))]
    find_witness(sp, metrics[0], budget=0)
    assert gocheck.per_space(gocheck._two_block_batch, sp) is None
    batch = len(structured_directions(sp))
    solved = count_solvers(monkeypatch)
    for metric in metrics + metrics:
        for search, seed in ((go_sample_check, 1), (find_witness, 2)):
            solved.clear()
            verdict = search(sp, metric, 15, seed)
            assert (verdict.status, verdict.samples_run) == ("go_sampled", batch + 15)
            assert solved == ["solve_int_columns"] * 15, (metric.params, seed)


def test_the_family_record_is_built_once_per_space(monkeypatch):
    # On fresh space objects, a refuted family (c2.2) and a GO family
    # (c2.1): the record is built at the first search, and 50 more searches
    # of distinct members at distinct seeds build nothing more per space.
    builds = []
    original = gocheck._two_block_batch

    def counted(space):
        builds.append(space.space_id)
        return original(space)

    monkeypatch.setattr(gocheck, "_two_block_batch", counted)
    for space_id in ("c2.2", "c2.1"):
        sp = catalog_space.__wrapped__(space_id)
        find_witness(sp, metric_from_blocks(sp, (2, 1)), budget=10, seed=0)
        keys, record = set(sp.derived), sp.derived[counted]
        for k in range(50):
            metric = metric_from_blocks(sp, (1, Fraction(k + 3, 2)))
            search = (find_witness, go_sample_check)[k % 2]
            search(sp, metric, 10, k)
        assert set(sp.derived) == keys
        assert sp.derived[counted] is record
    assert builds == ["c2.2", "c2.1"]
