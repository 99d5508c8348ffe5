"""Unit tests for exact linear algebra and structure-constant Lie algebras."""

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import pytest

from rank2go import gocheck, liealg
from rank2go.chevalley import build_compact_form
from rank2go.cli import metric_from_spec
from rank2go.embed import CATALOG_IDS, catalog_space
from rank2go.gocheck import find_witness, verify_witness
from rank2go.isotypic import isotypic_decompose

from rank2go.field import (
    ONE,
    RADICANDS,
    SQRT2,
    SQRT3,
    ZERO,
    Scalar,
    radical_labels,
    ring_combine,
    ring_lift,
    ring_scalar,
    scalar,
)
from rank2go.liealg import (
    _eliminate,
    _sparse_combine,
    _sparse_rows,
    LieAlgebra,
    Subspace,
    Vector,
    abelian,
    ad_on,
    centralizer_in,
    commuting_operators,
    direct_sum,
    eigenspaces,
    ideal_decomposition,
    identity_matrix,
    kernel_basis,
    lift_rows,
    mat_combine,
    mat_mul,
    mat_transpose,
    matrix_kernel_of,
    mat_apply,
    minimal_polynomial,
    nonzero_entries,
    normalizer,
    operator_on_subspace,
    orth_complement,
    rational_roots,
    ring_rows_commute,
    ring_rows_mul,
    rows_symmetric,
    rref,
    scalar_of,
    solve_columns,
    solve_int_columns,
    su2,
    subalgebra_closure,
    to_vector,
    trace_product,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)


def test_rref_canonical_and_idempotent():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    rr, piv = rref(rows)
    assert piv == [0, 1]
    assert rr[0] == to_vector([1, 0, 1])
    assert rr[1] == to_vector([0, 1, 1])
    again, piv2 = rref(rr)
    assert (again, piv2) == (rr, piv)


def test_rref_with_irrational_entries():
    rows = [[SQRT2, 2], [1, SQRT2]]  # second row is sqrt2/2 times the first
    rr, piv = rref(rows)
    assert len(rr) == 1
    assert rr[0] == (ONE, SQRT2)


def test_kernel_basis():
    rows = [[1, 1, 0], [0, 0, 1]]
    ker = kernel_basis(rows, 3)
    assert len(ker) == 1
    assert ker[0] == to_vector([-1, 1, 0])
    assert kernel_basis([[1, 0], [0, 1]], 2) == []


def test_solve_columns_ranks():
    cols = [to_vector([1, 0, 1]), to_vector([0, 1, 1])]
    x, rank_a, rank_aug = solve_columns(cols, to_vector([2, 3, 5]))
    assert x is not None
    assert [str(v) for v in x] == ["2", "3"]
    assert rank_a == rank_aug == 2
    x, rank_a, rank_aug = solve_columns(cols, to_vector([2, 3, 6]))
    assert x is None
    assert rank_a == 2
    assert rank_aug == 3
    # Underdetermined: free variable pinned to zero.
    cols = [to_vector([1, 0]), to_vector([2, 0]), to_vector([0, 1])]
    x, _, _ = solve_columns(cols, to_vector([3, 4]))
    assert x == [scalar(3), ZERO, scalar(4)]


def _int_system(rng, rows, cols, consistent):
    """Integer columns of rank at most a random r <= cols, so most systems
    carry a planted rank deficit, and a right-hand side that lies in their
    span when consistent and is drawn at random otherwise."""
    rank = rng.randint(0, cols)
    basis = [[rng.randint(-4, 4) for _ in range(rows)] for _ in range(rank)]
    columns = [
        [sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(rows)]
        for _ in range(cols)
    ]
    if consistent:
        weights = [rng.randint(-3, 3) for _ in range(cols)]
        rhs = [sum(w * col[i] for w, col in zip(weights, columns)) for i in range(rows)]
    else:
        rhs = [rng.randint(-5, 5) for _ in range(rows)]
    return columns, rhs


# (rows, columns): berger and cp3 give the 1- and 4-column systems of the
# direction search, g2 the 11-row ones.  The wide shapes have fewer data
# coordinates than columns, over which the column vectors find their pivots.
@pytest.mark.parametrize(
    "rows, cols", [(3, 1), (6, 4), (7, 3), (11, 3), (2, 4), (1, 3)]
)
def test_solve_int_columns_matches_solve_columns(rows, cols):
    rng = random.Random(100 * rows + cols)
    systems = [
        ([[0] * rows for _ in range(cols)], [0] * rows),
        ([[0] * rows for _ in range(cols)], [1] + [0] * (rows - 1)),
    ]
    for trial in range(60):
        columns, rhs = _int_system(rng, rows, cols, consistent=trial % 2 == 0)
        if trial % 3 == 0:
            z = rng.randrange(rows)
            for col in columns:
                col[z] = 0
            rhs[z] = 0
        if trial % 4 == 0:
            columns[rng.randrange(cols)] = [0] * rows
        systems.append((columns, rhs))
    outcomes = set()
    for columns, rhs in systems:
        exact, rank_map, rank_aug = solve_columns(
            [to_vector(c) for c in columns], to_vector(rhs)
        )
        sol, int_rank_map, int_rank_aug = solve_int_columns(columns, rhs)
        assert (int_rank_map, int_rank_aug) == (rank_map, rank_aug)
        assert (sol is None) == (exact is None)
        outcomes.add((sol is None, rank_map < cols))
        if sol is None:
            assert rank_aug == rank_map + 1
            continue
        nums, den = sol
        assert den > 0
        for i in range(rows):
            assert sum(n * col[i] for n, col in zip(nums, columns)) == den * rhs[i]
        assert [Fraction(n, den) for n in nums] == [x.as_fraction() for x in exact]
    # Consistent and inconsistent systems both occurred, with rank deficits.
    assert {(False, True), (True, True)} <= outcomes


RING_ENTRIES = (
    ZERO, ONE, -ONE, 2 * ONE, SQRT2, SQRT3, 1 + SQRT2, 2 - SQRT3,
    SQRT2 + SQRT3, Scalar.of_radical(5, Fraction(1, 2)) - 1,
    Scalar.of_radical(6) + Scalar.of_radical(30, 3), Fraction(2, 3) * SQRT2,
)


def mixed_radical_system(rng, nrows, ncols):
    """Columns spanning a random number of mixed-radical basis columns
    (a planted rank deficit over the field), often with a zero row and a
    zero column, and a right-hand side that is half the time in their
    span and otherwise random."""
    rank = rng.randint(0, min(nrows, ncols))
    basis = [
        [rng.choice(RING_ENTRIES) for _ in range(nrows)] for _ in range(rank)
    ]

    def combination():
        coeffs = [rng.choice(RING_ENTRIES) for _ in basis]
        return [
            sum((c * b[i] for c, b in zip(coeffs, basis)), ZERO)
            for i in range(nrows)
        ]

    columns = [combination() for _ in range(ncols)]
    if rng.random() < 0.5:
        columns[rng.randrange(ncols)] = [ZERO] * nrows
    if rng.random() < 0.5:
        z = rng.randrange(nrows)
        for col in columns:
            col[z] = ZERO
    if rng.random() < 0.5:
        coeffs = [rng.choice(RING_ENTRIES) for _ in columns]
        rhs = [
            sum((c * col[i] for c, col in zip(coeffs, columns)), ZERO)
            for i in range(nrows)
        ]
    else:
        rhs = [rng.choice(RING_ENTRIES) for _ in range(nrows)]
    return columns, rhs


def _scalar_solve(columns, rhs):
    """solve_columns on the test-kept Scalar loop _scalar_rref: the rank
    pair of [columns | rhs] and the solution with free variables zero."""
    n = len(columns)
    aug = [[col[i] for col in columns] + [b] for i, b in enumerate(rhs)]
    rr, pivots = _scalar_rref(aug)
    if n in pivots:
        return None, len(rr) - 1, len(rr)
    x = [ZERO] * n
    for row, p in zip(rr, pivots):
        x[p] = row[n]
    return x, len(rr), len(rr)


def test_solve_int_columns_checks_its_solution(monkeypatch):
    # A nonsingular square system keeps its rank pair (3, 3) whatever its
    # right-hand side, so only the solution check can see a corrupted row
    # update.
    columns, rhs = [[2, 1, 0], [1, 3, 1], [0, 1, 4]], [5, 7, -3]
    (nums, den), rank_map, rank_aug = solve_int_columns(columns, rhs)
    assert (rank_map, rank_aug) == (3, 3)
    assert [Fraction(x, den) for x in nums] == [
        Fraction(4, 3), Fraction(7, 3), Fraction(-4, 3),
    ]
    combine = liealg._int_combine

    def corrupted(p, row, c, prow):
        new = combine(p, row, c, prow)
        return new[:-1] + [new[-1] + 1]

    monkeypatch.setattr(liealg, "_int_combine", corrupted)
    with pytest.raises(ArithmeticError):
        solve_int_columns(columns, rhs)


def _rational_rows(rng, nrows, ncols):
    """Seeded random rationals of rank at most a random r, often with a
    planted zero row and zero column."""
    rank = rng.randint(0, min(nrows, ncols))
    basis = [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
        for _ in range(rank)
    ]
    rows = [
        [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(ncols)]
        for _ in range(nrows)
    ]
    if rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.5:
        z = rng.randrange(ncols)
        for row in rows:
            row[z] = 0
    return [[scalar(x) for x in row] for row in rows]


def _monomial_rows(rng, nrows, ncols):
    """diag(sqrt u) . Q . diag(sqrt t) for random radicands u, t and a
    random rational Q."""
    u = [Scalar.of_radical(rng.choice(RADICANDS)) for _ in range(nrows)]
    t = [Scalar.of_radical(rng.choice(RADICANDS)) for _ in range(ncols)]
    return [
        [ui * x * tj for x, tj in zip(row, t)]
        for ui, row in zip(u, _rational_rows(rng, nrows, ncols))
    ]


# The Scalar Gauss-Jordan loop that rref ran on mixed-radical data before it
# eliminated ring rows, kept word for word: every rref differential test
# compares against it.

def _scalar_rref(rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """rref on Scalars, inverting each pivot: the path for data whose
    entries mix radicals."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(work)):
            if work[r][col]:
                sel = r
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * x for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return [tuple(row) for row in work[:rank]], pivots


def _mix(rng, rows):
    """rows with sqrt2 + sqrt3 + sqrt5 added to one entry, which then mixes
    radicals whatever the entry was."""
    rows = [list(r) for r in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = rows[i][j] + SQRT2 + Scalar.of_radical(3) + Scalar.of_radical(5)
    return rows


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (3, 5), (5, 3), (6, 6), (4, 8)])
def test_rref_matches_the_scalar_loop(nrows, ncols):
    """rref equals the Scalar elimination on rational, radical-monomial and
    mixed-radical data, and each kind takes the path it should."""
    rng = random.Random(10 * nrows + ncols)
    for trial in range(12):
        rational = _rational_rows(rng, nrows, ncols)
        monomial = _monomial_rows(rng, nrows, ncols)
        mixed = _mix(rng, _monomial_rows(rng, nrows, ncols))
        assert _labels(rational) == ([1] * nrows, [1] * ncols)
        assert _labels(monomial) is not None
        assert _labels(mixed) is None
        for rows in (rational, monomial, mixed):
            assert rref(rows) == _scalar_rref(rows)


def test_rref_matches_the_scalar_loop_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4
            )
        ),
        st.lists(st.sampled_from(RADICANDS), min_size=4, max_size=4),
        st.lists(st.sampled_from(RADICANDS), min_size=4, max_size=4),
        st.booleans(),
    )
    def check(q, u, t, mixed):
        rows = [
            [Scalar.of_radical(ui) * x * Scalar.of_radical(tj) for x, tj in zip(row, t)]
            for ui, row in zip(u, q)
        ]
        if mixed:
            rows[0][0] = rows[0][0] + SQRT2 + Scalar.of_radical(5)
        assert rref(rows) == _scalar_rref(rows)

    check()


def test_mixed_radical_rref_runs_in_eliminate(monkeypatch):
    """rref on mixed-radical data hands _eliminate one ring row per nonzero
    input row, zero rows of every spelling dropped, and its rows equal the
    Scalar loop's."""
    calls = []

    def spy(work, columns, *args):
        calls.append([list(row) for row in work])
        return _eliminate(work, columns, *args)

    monkeypatch.setattr(liealg, "_eliminate", spy)
    rng = random.Random(15)
    for nrows, ncols in [(1, 1), (4, 3), (6, 6), (10, 4), (14, 4)]:
        rows = _mix(rng, _monomial_rows(rng, nrows, ncols))
        rows.insert(rng.randrange(nrows + 1), [ZERO] * ncols)
        rows.insert(rng.randrange(nrows + 2), [_fresh_zero()] * ncols)
        assert _labels(rows) is None
        calls.clear()
        assert rref(rows) == _scalar_rref(rows)
        assert len(calls) == 1
        assert len(calls[0]) == sum(1 for row in rows if any(row))
        assert all(any(row) for row in calls[0])


def test_ring_combine_skips_only_the_pivot_entry():
    """ring_combine gives p * row - c * prow up to a positive rational
    factor.  Where x is c and y is p it writes zero without a product; an
    entry holding the object c against another pivot row entry is still
    computed."""
    p, c, q = ring_lift([1 + SQRT2, SQRT3 - 2, Scalar.of_radical(5, 3)])
    row, prow = [c, c, (), p, q], [p, q, p, p, ()]
    got = [ring_scalar(x) for x in ring_combine(p, row, c, prow)]
    P, C = ring_scalar(p), ring_scalar(c)
    want = [P * ring_scalar(x) - C * ring_scalar(y) for x, y in zip(row, prow)]
    assert got[0] == ZERO and all(got[1:]) and all(want[1:])
    ratio = want[1] / got[1]
    assert ratio.is_rational and ratio > 0
    assert want == [ratio * x for x in got]


# Every refutation that verify_witness replays on these metrics solves the
# compensator system through solve_columns; the blocks with a radical mix
# radicals.
REPLAYED_RANKS = {"c2.2": (2, 3), "g2.1": (3, 4), "g2.3": (2, 3)}
REPLAYED_METRICS = ["blocks:2,1", "blocks:r2,1", "blocks:1+r2,3", "blocks:2-r3,1"]


@pytest.mark.parametrize("space_id", sorted(REPLAYED_RANKS))
def test_rref_on_replayed_compensator_systems(space_id, monkeypatch):
    """Capture every solve_columns input that verify_witness builds: the
    mixed ones take the ring path, each solve gives the rank pair and the
    solution of the Scalar loop, and rref of its augmented matrix gives the
    Scalar loop's rows."""
    sp = catalog_space(space_id)
    for spec in REPLAYED_METRICS:
        metric = metric_from_spec(sp, spec)
        witness = find_witness(sp, metric, budget=50, seed=1).witness
        seen = []

        def spy(columns, rhs):
            seen.append((columns, rhs))
            return solve_columns(columns, rhs)

        with monkeypatch.context() as m:
            m.setattr(gocheck, "solve_columns", spy)
            assert verify_witness(sp, metric, witness)
        ranks = (witness.rank_map, witness.rank_augmented)
        assert ranks == REPLAYED_RANKS[space_id]
        assert seen
        for columns, rhs in seen:
            aug = [[col[i] for col in columns] + [b] for i, b in enumerate(rhs)]
            assert (_labels(aug) is None) == (spec != "blocks:2,1")
            assert solve_columns(columns, rhs) == _scalar_solve(columns, rhs)
            assert rref(aug) == _scalar_rref(aug)


def _column_system(rng, rows, nrows, ncols, consistent):
    """The columns of rows (nrows x ncols) and a right-hand side that is a
    combination of them when consistent and a random rational otherwise."""
    columns = [[row[j] for row in rows] for j in range(ncols)]
    if consistent:
        coeffs = [scalar(rng.randint(-3, 3)) for _ in columns]
        rhs = [sum((c * col[i] for c, col in zip(coeffs, columns)), ZERO)
               for i in range(nrows)]
    else:
        rhs = [scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
               for _ in range(nrows)]
    return columns, rhs


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (4, 2), (7, 4), (11, 5), (3, 5)])
def test_solve_columns_matches_the_scalar_loop(nrows, ncols):
    """solve_columns gives _scalar_solve's rank pair and solution on
    rational, radical-monomial and mixed-radical systems, consistent and
    inconsistent."""
    rng = random.Random(1000 * nrows + ncols)
    outcomes = set()
    for trial in range(24):
        consistent = trial % 2 == 0
        for kind, rows in (
            ("rational", _rational_rows(rng, nrows, ncols)),
            ("monomial", _monomial_rows(rng, nrows, ncols)),
        ):
            columns, rhs = _column_system(rng, rows, nrows, ncols, consistent)
            got = solve_columns(columns, rhs)
            assert got == _scalar_solve(columns, rhs)
            outcomes.add((kind, got[0] is None))
        columns, rhs = mixed_radical_system(rng, nrows, ncols)
        got = solve_columns(columns, rhs)
        assert got == _scalar_solve(columns, rhs)
        outcomes.add(("mixed", got[0] is None))
    if nrows > ncols:
        assert outcomes == {
            (kind, inconsistent)
            for kind in ("rational", "monomial", "mixed")
            for inconsistent in (False, True)
        }


def test_an_inconsistent_mixed_system_inverts_nothing(monkeypatch):
    """solve_columns reads consistency off the elimination: an inconsistent
    mixed-radical system returns before any pivot is inverted, while a
    consistent one inverts pivots to normalize its solution."""
    calls = []
    inverse = Scalar.inverse

    def spy(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Scalar, "inverse", spy)
    rng = random.Random(21)
    counts = {True: [], False: []}
    while min(map(len, counts.values())) < 5:
        columns, rhs = mixed_radical_system(rng, 6, 3)
        aug = [[col[i] for col in columns] + [b] for i, b in enumerate(rhs)]
        if _labels(aug) is not None:
            continue
        calls.clear()
        sol = solve_columns(columns, rhs)[0]
        if sol is None or any(sol):
            counts[sol is None].append(len(calls))
    assert counts[True] == [0] * len(counts[True])
    assert all(counts[False])


def _sparse_case(rng, nrows, ncols, density, monomial):
    """A matrix shaped like a commutant solve: each entry nonzero with
    probability density, plus zero rows, all-zero columns and duplicate
    rows (some scaled).  Zeros come as the shared ZERO, as fresh zero
    Scalars and as int 0; monomial data is diag(sqrt u) . Q . diag(sqrt t)."""
    def entry():
        if rng.random() < density:
            return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
        return rng.choice([ZERO, ZERO, scalar(0), 0])

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(1, 3)):
        rows[rng.randrange(nrows)] = [ZERO] * ncols
    for _ in range(rng.randint(1, 3)):
        z = rng.randrange(ncols)
        for row in rows:
            row[z] = ZERO
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([1, 1, -2, Fraction(1, 3)])
        rows[rng.randrange(nrows)] = [c * x for x in rows[rng.randrange(nrows)]]
    if not monomial:
        return rows
    u = [Scalar.of_radical(rng.choice(RADICANDS)) for _ in range(nrows)]
    t = [Scalar.of_radical(rng.choice(RADICANDS)) for _ in range(ncols)]
    return [
        [ui * x * tj if x else x for x, tj in zip(row, t)]
        for ui, row in zip(u, rows)
    ]


@pytest.mark.parametrize(
    "nrows, ncols, density",
    [(60, 36, 0.03), (60, 36, 0.1), (36, 36, 0.05), (12, 30, 0.1), (45, 9, 0.1)],
)
@pytest.mark.parametrize("monomial", [False, True])
def test_sparse_rref_matches_the_scalar_loop(nrows, ncols, density, monomial):
    """rref's sparse integer rows give the Scalar elimination's rows on
    sparse rational and radical-monomial matrices of commutant-solve
    shape."""
    rng = random.Random(1000 * nrows + 10 * ncols + monomial)
    for _ in range(3):
        rows = _sparse_case(rng, nrows, ncols, density, monomial)
        assert _labels(rows) is not None
        assert rref(rows) == _scalar_rref([to_vector(r) for r in rows])


def test_sparse_rref_matches_the_scalar_loop_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        st.integers(1, 30),
        st.integers(1, 20),
        st.sampled_from([0.03, 0.06, 0.1, 0.2]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def check(nrows, ncols, density, monomial, rng):
        rows = _sparse_case(rng, nrows, ncols, density, monomial)
        assert rref(rows) == _scalar_rref([to_vector(r) for r in rows])

    check()


def _invertible_rational(rng, n):
    """P = perm . L . U with L lower and U upper triangular, both with a
    nonzero diagonal: a random invertible rational n x n matrix."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def diag():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    lower = [[diag() if i == j else entry() if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[diag() if i == j else entry() if j > i else 0 for j in range(n)]
             for i in range(n)]
    p = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    rng.shuffle(p)
    return p


def test_rref_is_a_canonical_form_hypothesis():
    """rref depends on the row space alone: it is unchanged by an
    invertible row operation P, each pivot is 1 and the first nonzero of
    its row, and each pivot column is zero in every other row."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def check(nrows, ncols, monomial, rng):
        make = _monomial_rows if monomial else _rational_rows
        rows = make(rng, nrows, ncols)
        p = _invertible_rational(rng, nrows)
        mixed = [
            [sum((c * r[j] for c, r in zip(prow, rows)), ZERO) for j in range(ncols)]
            for prow in p
        ]
        basis, pivots = rref(rows)
        assert (basis, pivots) == rref(mixed)
        assert pivots == sorted(set(pivots))
        for i, (row, piv) in enumerate(zip(basis, pivots)):
            assert row[piv] == ONE and not any(row[:piv])
            assert all(not other[piv] for k, other in enumerate(basis) if k != i)

    check()


def _labels(rows):
    """radical_labels of dense rows, read into sparse rows as rref does."""
    return radical_labels(_sparse_rows(rows), len(rows[0]) if rows else 0)


def test_radical_labels():
    r2, r3 = SQRT2, Scalar.of_radical(3)
    # Each entry is one radical, but sqrt2 at (1, 1) contradicts the labels
    # that the other three entries force.
    assert _labels([[ONE, ONE], [ONE, r2]]) is None
    assert _labels([[ONE + r2]]) is None
    u, t = _labels([[r2, 2 * r3], [ONE, Scalar.of_radical(6)]])
    assert (u, t) == ([1, 2], [2, 3])
    assert _labels([]) == ([], [])
    assert _labels([[ZERO, ZERO]]) == ([1], [1, 1])


def test_eliminate_keeps_rows_primitive():
    """Every row _eliminate leaves is divided by its gcd, when the input
    rows are primitive, and it is in reduced echelon form: with dense rows
    and _int_combine, and with sparse rows as plain dicts and
    _sparse_combine, which _eliminate reads by dict.get."""
    rng = random.Random(11)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
        dense = [[x // gcd(*r) for x in r] for r in rows if any(r)]
        sparse = [{j: x for j, x in enumerate(r) if x} for r in dense]
        dense_pivots = _eliminate(dense, range(6))
        sparse_pivots = _eliminate(
            sparse, sorted(set().union(*sparse)), _sparse_combine
        )
        assert sparse_pivots == dense_pivots
        for work in (dense, [[r.get(j, 0) for j in range(6)] for r in sparse]):
            for i, p in enumerate(dense_pivots):
                assert gcd(*work[i]) == 1
                assert [r[p] != 0 for r in work] == [k == i for k in range(len(work))]
            assert not any(any(r) for r in work[len(dense_pivots):])


def test_subspace_membership_coords_equality():
    s = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 2]])
    t = Subspace.from_vectors(3, [[1, 0, -1], [2, 2, 0], [3, 2, -1]])
    assert s == t
    assert s.dim == 2
    assert s.contains(to_vector([5, 3, -2]))
    assert not s.contains(to_vector([0, 0, 1]))
    c = s.coords(to_vector([5, 3, -2]))
    rebuilt = zero_vector(3)
    for coef, row in zip(c, s.rows):
        rebuilt = vec_add(rebuilt, vec_scale(coef, row))
    assert rebuilt == to_vector([5, 3, -2])
    with pytest.raises(ValueError):
        s.coords(to_vector([0, 0, 1]))


def test_subspace_add_intersection():
    a = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert a.add(b).dim == 3
    i = a.intersection(b)
    assert i.dim == 1
    assert i.contains(to_vector([0, 7, 0, 0]))
    z = Subspace.zero(4)
    assert a.intersection(z).is_zero()
    assert a.add(z) == a


def test_su2_relations_and_jacobi():
    L = su2()
    iH, F, G = (L.basis_vector(i) for i in range(3))
    assert L.bracket(iH, F) == vec_scale(2, G)
    assert L.bracket(iH, G) == vec_scale(-2, F)
    assert L.bracket(F, G) == vec_scale(2, iH)
    for u in (iH, F, G):
        for v in (iH, F, G):
            for w in (iH, F, G):
                assert L.jacobi_defect(u, v, w) == zero_vector(3)


def test_su2_killing_matches_stored_form():
    L = su2()
    for i in range(3):
        for j in range(3):
            v, w = L.basis_vector(i), L.basis_vector(j)
            assert L.trace_form(v, w) == scalar(2) * L.form_value(v, w)
            assert L.killing(v, w) == L.form_value(v, w)
    assert L.killing(L.basis_vector(0), L.basis_vector(0)) == scalar(-4)


def test_abelian_and_direct_sum():
    z = abelian(["Z"], [-4])
    assert z.bracket(z.basis_vector(0), z.basis_vector(0)) == zero_vector(1)
    u2 = direct_sum("u2", su2(), z)
    assert u2.dim == 4
    assert u2.labels == ("iH", "F", "G", "Z")
    assert u2.killing_scale is None
    Zv = u2.basis_vector("Z")
    for i in range(3):
        assert u2.bracket(Zv, u2.basis_vector(i)) == zero_vector(4)
    assert u2.form_value(Zv, Zv) == scalar(-4)
    # Raw trace form is degenerate on the center.
    assert u2.killing(Zv, Zv) == ZERO
    assert u2.form_value(u2.basis_vector("F"), u2.basis_vector("F")) == scalar(-4)


def test_structural_subspaces_on_su2():
    L = su2()
    full = L.full_subspace()
    cartan = Subspace.from_vectors(3, [[1, 0, 0]])
    cent = centralizer_in(L, cartan, full)
    assert cent == cartan
    assert normalizer(L, cartan) == cartan
    assert normalizer(L, full) == full
    comp = orth_complement(L, cartan)
    assert comp == Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert subalgebra_closure(L, [[0, 1, 0]]).dim == 1
    assert subalgebra_closure(L, [[0, 1, 0], [0, 0, 1]]) == full


def test_subalgebra_closure_brackets_no_row_with_itself(monkeypatch):
    """[a, a] = 0, so each round of subalgebra_closure brackets every pair
    of distinct rows of the span once, and never a row with itself; the
    closures are unchanged."""
    pairs = []
    original = LieAlgebra.bracket

    def spy(self, v, w):
        pairs.append((v, w))
        return original(self, v, w)

    monkeypatch.setattr(LieAlgebra, "bracket", spy)
    L = direct_sum("su2+su2", su2("L."), su2("R."))
    # [L.iH + R.iH, L.F] = 2 L.G, then [L.F, L.G] = 2 L.iH: two rounds grow
    # the span to su2 + R.iH.
    seed = [vec_add(L.basis_vector("L.iH"), L.basis_vector("R.iH")),
            L.basis_vector("L.F")]
    closure = subalgebra_closure(L, seed)
    assert closure == Subspace.from_vectors(
        6, [L.basis_vector(lab) for lab in ("L.iH", "L.F", "L.G", "R.iH")]
    )
    for space_id in CATALOG_IDS:
        sp = catalog_space(space_id)
        assert subalgebra_closure(sp.algebra, sp.h.rows) == sp.h
    assert pairs and all(v != w for v, w in pairs)


def test_ideal_decomposition_plain_sum():
    L = direct_sum("su2+su2", su2("L."), su2("R."))
    center, ideals = ideal_decomposition(L)
    assert center.is_zero()
    assert [p.dim for p in ideals] == [3, 3]
    first = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3)])
    second = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3, 6)])
    assert {ideals[0], ideals[1]} == {first, second}


def test_ideal_decomposition_with_center():
    L = direct_sum("u2", su2(), abelian(["Z"], [-4]))
    center, ideals = ideal_decomposition(L)
    assert center.dim == 1
    assert center.contains(L.basis_vector("Z"))
    assert len(ideals) == 1 and ideals[0].dim == 3


def test_ideal_decomposition_three_simple_ideals_and_a_center():
    parts = [su2("A."), su2("B."), su2("C."), abelian(["Z"], [-4])]
    L = direct_sum("su2^3+u1", *parts)
    center, ideals = ideal_decomposition(L)
    assert center == Subspace.from_vectors(10, [L.basis_vector("Z")])
    assert [p.dim for p in ideals] == [3, 3, 3]
    assert ideals == [
        Subspace.from_vectors(10, [unit_vector(10, i) for i in range(o, o + 3)])
        for o in (6, 3, 0)
    ]


def test_ideal_decomposition_of_compact_a2():
    L = build_compact_form("a2").algebra
    center, ideals = ideal_decomposition(L)
    assert center.is_zero()
    assert ideals == [L.full_subspace()]


def _scrambled_double_su2():
    """su(2) + su(2) written in a basis where every basis vector mixes the
    two factors, so naive single-generator ideal growth always fills up."""
    base = direct_sum("su2+su2", su2("L."), su2("R."))
    n = 6
    cols = []
    for i in range(3):
        cols.append(vec_add(unit_vector(n, i), unit_vector(n, i + 3)))
    for i in range(3):
        cols.append(
            vec_add(unit_vector(n, i), vec_scale(-1, unit_vector(n, i + 3)))
        )

    def new_bracket(i, j):
        w = base.bracket(cols[i], cols[j])
        x, _, _ = solve_columns(cols, w)
        return {k: c for k, c in enumerate(x) if c}

    form = [[base.form_value(cols[i], cols[j]) for j in range(n)] for i in range(n)]
    labels = [f"m{i}" for i in range(n)]
    L = LieAlgebra.from_bracket_function(
        "scrambled", labels, new_bracket, form, Fraction(2)
    )
    return L, cols, base


def test_ideal_decomposition_fallback_on_scrambled_basis():
    L, cols, base = _scrambled_double_su2()
    center, ideals = ideal_decomposition(L)
    assert center.is_zero()
    assert [p.dim for p in ideals] == [3, 3]
    # Map back to the original coordinates and compare with the true ideals.
    mapped = []
    for p in ideals:
        vecs = []
        for row in p.rows:
            v = zero_vector(6)
            for c, col in zip(row, cols):
                if c:
                    v = vec_add(v, vec_scale(c, col))
            vecs.append(v)
        mapped.append(Subspace.from_vectors(6, vecs))
    first = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3)])
    second = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3, 6)])
    assert {mapped[0], mapped[1]} == {first, second}


def test_minimal_polynomial_and_roots():
    # Operator with eigenvalues 2, 2, -1/3 on a non-diagonal basis.
    M = [
        [scalar(2), scalar(1), ZERO],
        [ZERO, scalar(2), ZERO],
        [ZERO, ZERO, scalar(Fraction(-1, 3))],
    ]
    coeffs = minimal_polynomial(M)
    # (x-2)^2 (x+1/3) is the minimal polynomial because of the Jordan block.
    assert len(coeffs) == 4
    roots = rational_roots(coeffs)
    assert roots == [Fraction(-1, 3), Fraction(2), Fraction(2)]
    D = [
        [scalar(2), ZERO, ZERO],
        [ZERO, scalar(2), ZERO],
        [ZERO, ZERO, scalar(Fraction(-1, 3))],
    ]
    assert rational_roots(minimal_polynomial(D)) == [Fraction(-1, 3), Fraction(2)]
    with pytest.raises(ArithmeticError):
        # x^2 - 2 has no rational roots.
        rational_roots([Fraction(-2), Fraction(0), Fraction(1)])
    with pytest.raises(ArithmeticError):
        minimal_polynomial([[SQRT2]])


def test_operator_on_subspace():
    L = su2()
    sub = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    iH = L.basis_vector(0)
    op = operator_on_subspace(lambda w: L.bracket(iH, w), sub)
    # On (F, G): F -> 2G, G -> -2F.
    assert op[0][0] == ZERO and op[1][0] == scalar(2)
    assert op[0][1] == scalar(-2) and op[1][1] == ZERO
    coeffs = minimal_polynomial([[op[i][j] for j in range(2)] for i in range(2)])
    assert coeffs == [Fraction(4), Fraction(0), Fraction(1)]
    with pytest.raises(ArithmeticError):
        rational_roots(coeffs)  # x^2 + 4 has no rational roots


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_combine_inverts_coords_on_every_catalogue_m(space_id):
    m = catalog_space(space_id).m
    for row in m.rows:
        assert m.combine(m.coords(row)) == row
    rng = random.Random(space_id)
    v = zero_vector(m.ambient_dim)
    for row in m.rows:
        v = vec_add(v, vec_scale(rng.randint(-9, 9), row))
    assert m.combine(m.coords(v)) == v
    assert m.combine([ZERO] * m.dim) == zero_vector(m.ambient_dim)
    with pytest.raises(ValueError):
        m.combine([ONE] * (m.dim + 1))
    with pytest.raises(ValueError):
        m.combine([ONE] * (m.dim - 1))


def test_commuting_operators():
    L = su2()
    full = L.full_subspace()
    ads = [operator_on_subspace(lambda w, b=b: L.bracket(b, w), full) for b in full.rows]
    # su(2) acts irreducibly on itself with real type: only the scalars commute.
    assert commuting_operators(ads, 3) == [[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]
    # With no constraint every matrix commutes.
    assert len(commuting_operators([], 2)) == 4


def _unit_matrix_commutant(ads, d):
    """The construction commuting_operators replaced, kept as the
    reference: T runs over the unit matrices E_pq, E_pq A - A E_pq has row
    q of A as its row p, minus column p of A as its column q, and the
    kernel maps back through mat_combine of the units."""
    units, images = [], []
    for p in range(d):
        for q in range(d):
            units.append([[ONE if (i, j) == (p, q) else ZERO for j in range(d)]
                          for i in range(d)])
            image = []
            for A in ads:
                block = [[ZERO] * d for _ in range(d)]
                block[p] = list(A[q])
                for i in range(d):
                    if A[i][p]:
                        block[i][q] = block[i][q] - A[i][p]
                image.extend(x for row in block for x in row)
            images.append(image)
    return matrix_kernel_of(units, images)


def _commutant_cases():
    """(name, ads, d): the h-action on every isotypic piece of the 14
    catalogue spaces, and su(2)^3 + u(1) under its own adjoint action and
    under the diagonal su(2)."""
    for sid in CATALOG_IDS:
        sp = catalog_space(sid)
        for k, comp in enumerate(isotypic_decompose(sp).components):
            ads = [ad_on(sp.algebra, a, comp.subspace) for a in sp.h.rows]
            yield f"{sid}[{k}]", ads, comp.dim
    L = direct_sum(
        "su2^3+u1", su2("A."), su2("B."), su2("C."), abelian(["Z"], [-4])
    )
    full = L.full_subspace()
    yield "su2^3+u1", [ad_on(L, b, full) for b in full.rows], L.dim
    diagonal = [
        vec_add(vec_add(unit_vector(10, i), unit_vector(10, i + 3)),
                unit_vector(10, i + 6))
        for i in range(3)
    ]
    yield "diagonal su2", [ad_on(L, b, full) for b in diagonal], L.dim


def test_commuting_operators_match_the_unit_matrix_construction():
    """The constraint rows written from the action matrices span the same
    row space as the unit-matrix images, so the canonical bases agree."""
    sizes = {}
    for name, ads, d in _commutant_cases():
        basis = commuting_operators(ads, d)
        assert basis == _unit_matrix_commutant(ads, d), name
        sizes[name] = len(basis)
    assert sizes["su2^3+u1"] == 4
    assert sizes["diagonal su2"] == 10


def negating_kernel_basis(rows, ncols):
    """kernel_basis as first written: every entry of the pivot rows at the
    free column is negated, zero ones too."""
    rr, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [ZERO] * ncols
        x[free] = ONE
        for i, p in enumerate(pivots):
            x[p] = -rr[i][free]
        basis.append(tuple(x))
    return basis


def test_kernel_basis_of_every_commutant_solve_is_unchanged(monkeypatch):
    # Every kernel_basis call of commuting_operators over the isotypic
    # pieces of the 14 spaces, against the negating loop; a zero entry of
    # the RREF is left as the shared ZERO, not negated into a new Scalar.
    import rank2go.liealg as liealg

    solves = []

    def recording(rows, ncols):
        solves.append((rows, ncols))
        return kernel_basis(rows, ncols)

    cases = list(_commutant_cases())
    monkeypatch.setattr(liealg, "kernel_basis", recording)
    for _, ads, d in cases:
        commuting_operators(ads, d)
    monkeypatch.undo()
    negated_zeros = 0
    for rows, ncols in solves:
        basis = kernel_basis(rows, ncols)
        reference = negating_kernel_basis(rows, ncols)
        assert basis == reference
        assert all(x is ZERO for v in basis for x in v if not x)
        negated_zeros += sum(not x and x is not ZERO for v in reference for x in v)
    assert len(solves) == len(cases)
    assert negated_zeros > 0


def test_kernel_of():
    zero = Subspace.zero(3)
    assert zero.kernel_of([]) == zero
    plane = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    # No constraints: every combination of the rows qualifies.
    assert plane.kernel_of([(), ()]) == plane
    # The map (x, y, z) -> x - y sends the rows to 1 and -1.
    assert plane.kernel_of([(ONE,), (-ONE,)]) == Subspace.from_vectors(
        3, [[1, 1, 0]]
    )
    with pytest.raises(ValueError):
        plane.kernel_of([(ONE,)])


def test_scalar_of():
    def times_identity(c):
        return [[c if i == j else ZERO for j in range(3)] for i in range(3)]

    assert scalar_of(times_identity(ONE)) == ONE
    assert scalar_of(times_identity(scalar(2))) == scalar(2)
    assert scalar_of(times_identity(SQRT2)) == SQRT2
    skew = times_identity(ONE)
    skew[0][1] = ONE
    assert scalar_of(skew) is None
    assert scalar_of([[ONE, ZERO], [ZERO, scalar(2)]]) is None


def test_eigenspaces():
    full = Subspace.full(3)
    two, minus_one = scalar(2), scalar(-1)
    diag = [[two, ZERO, ZERO], [ZERO, minus_one, ZERO], [ZERO, ZERO, two]]
    pieces = eigenspaces(full, diag)
    assert [lam for lam, _ in pieces] == [Fraction(-1), Fraction(2)]
    assert [p.dim for _, p in pieces] == [1, 2]
    # (x - 1)^2 is the minimal polynomial; its eigenspace is 2-dimensional.
    jordan = [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    with pytest.raises(ArithmeticError):
        eigenspaces(full, jordan)
    rotation = [[ZERO, -ONE], [ONE, ZERO]]
    with pytest.raises(ArithmeticError):
        eigenspaces(Subspace.full(2), rotation)


def test_ring_row_products_match_dense_products():
    # ring_rows_mul, ring_rows_commute and rows_symmetric on lifted rows
    # against mat_mul and the transpose on Scalars, with zero, rational and
    # mixed-radical entries; b is sometimes a polynomial in a, so that the
    # two commute.
    rng = random.Random(12)
    pool = [ZERO] * 8 + [
        scalar(Fraction(p, q)) for p in (-3, -1, 1, 2, 5) for q in (1, 2, 9)
    ] + [SQRT2, 1 + SQRT3, Fraction(1, 3) * SQRT2 * SQRT3, 2 - SQRT3 / 5]
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            b = mat_combine(
                (rng.choice(pool), 1, 2),
                (mat_mul(a, a), a, identity_matrix(n)),
                n,
            )
        else:
            b = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            a = mat_combine((1, 1), (a, mat_transpose(a)), n)
        ra, rb = lift_rows(a), lift_rows(b)
        scale = (
            lcm(*(c.den for row in a for c in row))
            * lcm(*(c.den for row in b for c in row))
        )
        product = [[ZERO] * n for _ in range(n)]
        for out, row in zip(product, ring_rows_mul(ra, rb)):
            for j, v in row:
                out[j] = ring_scalar(v, scale)
        assert product == mat_mul(a, b)
        commute = mat_mul(a, b) == mat_mul(b, a)
        symmetric = a == mat_transpose(a)
        assert ring_rows_commute(ra, rb) == commute
        assert rows_symmetric(ra) == symmetric
        seen.add((commute, symmetric))
    assert seen == {(c, s) for c in (True, False) for s in (True, False)}


# -- the nonzero-entry loops against their dense bodies -----------------------
#
# The reference bodies below are the dense loops that bracket, form_value,
# trace_product, mat_mul, mat_apply, mat_combine and Subspace.residual and
# combine ran before they walked nonzero entries only.  Each truth-tests
# every entry.

def reference_bracket(L, v, w):
    acc = [ZERO] * L.dim
    for i, a in enumerate(v):
        if not a:
            continue
        row = L.table[i]
        for j, b in enumerate(w):
            if not b:
                continue
            ab = a * b
            for k, c in row[j]:
                acc[k] = acc[k] + ab * c
    return tuple(acc)


def reference_form_value(L, v, w):
    total = ZERO
    for i, a in enumerate(v):
        if not a:
            continue
        row = L.form[i]
        for j, b in enumerate(w):
            if b and row[j]:
                total = total + a * b * row[j]
    return total


def reference_trace_product(a, b):
    total = ZERO
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x and b[j][i]:
                total = total + x * b[j][i]
    return total


def reference_mat_mul(a, b):
    out = [[ZERO] * len(b[0]) for _ in range(len(a))]
    for i in range(len(a)):
        for k in range(len(b)):
            if not a[i][k]:
                continue
            for j in range(len(b[0])):
                if b[k][j]:
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def reference_mat_apply(a, v):
    return tuple(
        sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in a
    )


def reference_mat_combine(coeffs, mats, n):
    out = [[ZERO] * n for _ in range(n)]
    for c, M in zip(coeffs, mats):
        if c:
            for row_out, row in zip(out, M):
                for j, x in enumerate(row):
                    if x:
                        row_out[j] = row_out[j] + c * x
    return out


def reference_residual(sub, v):
    w = list(to_vector(v))
    for row, p in zip(sub.rows, sub.pivots):
        c = w[p]
        if c:
            w = [x - c * y if y else x for x, y in zip(w, row)]
    return tuple(w)


def reference_combine(sub, coeffs):
    out = [ZERO] * sub.ambient_dim
    for c, row in zip(coeffs, sub.rows):
        if c:
            for k, x in enumerate(row):
                if x:
                    out[k] = out[k] + c * x
    return tuple(out)


def _fresh_zero():
    return Scalar((0,) * 8)


# Nonzero entries of three kinds, and zeros written two ways; the third,
# all-zero rows and columns, is planted by _loop_matrix and _loop_vector.
LOOP_ENTRIES = {
    "rational": [scalar(Fraction(p, q)) for p in (-3, -1, 2, 5) for q in (1, 2, 7)],
    "monomial": [
        Scalar.of_radical(r, Fraction(p, q))
        for r in (2, 3, 5, 6, 30) for p, q in ((1, 1), (-2, 3), (5, 2))
    ],
    "mixed": [
        1 + SQRT2, 2 - SQRT3, SQRT2 + SQRT3 / 4,
        Scalar.of_radical(5, Fraction(1, 2)) - 1,
        Scalar.of_radical(6) + Scalar.of_radical(30, 3),
    ],
}


def _loop_entry(rng, kind, density):
    if rng.random() < density:
        return rng.choice(LOOP_ENTRIES[kind])
    return ZERO if rng.random() < 0.5 else _fresh_zero()


def _loop_vector(rng, n, kind, density=0.4):
    if rng.random() < 0.15:
        return tuple(rng.choice([ZERO, _fresh_zero()]) for _ in range(n))
    return tuple(_loop_entry(rng, kind, density) for _ in range(n))


def _loop_matrix(rng, nrows, ncols, kind, density=0.35):
    mat = [[_loop_entry(rng, kind, density) for _ in range(ncols)]
           for _ in range(nrows)]
    if rng.random() < 0.4:
        mat[rng.randrange(nrows)] = [_fresh_zero() for _ in range(ncols)]
    if rng.random() < 0.4:
        j = rng.randrange(ncols)
        for row in mat:
            row[j] = rng.choice([ZERO, _fresh_zero()])
    return mat


def _random_algebra(rng, n, kind):
    """Structure constants and a symmetric form drawn at random: neither
    loop needs the Jacobi identity, and the form has off-diagonal entries
    and fresh zero Scalars, which from_bracket_function keeps."""
    table = {
        (i, j): {k: _loop_entry(rng, kind, 1.0) for k in rng.sample(range(n), 2)}
        for i in range(n) for j in range(n) if rng.random() < 0.5
    }
    form = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            form[i][j] = form[j][i] = _loop_entry(rng, kind, 0.5)
    return LieAlgebra.from_bracket_function(
        "random", [f"e{i}" for i in range(n)],
        lambda i, j: table.get((i, j), {}), form,
    )


@pytest.mark.parametrize("kind", sorted(LOOP_ENTRIES))
def test_algebra_loops_match_their_dense_bodies(kind):
    rng = random.Random(kind)
    algebras = [su2(), build_compact_form("g2").algebra]
    algebras += [_random_algebra(rng, n, kind) for n in (3, 5, 8)]
    for L in algebras:
        n = L.dim
        for _ in range(25):
            v, w = _loop_vector(rng, n, kind), _loop_vector(rng, n, kind)
            assert L.bracket(v, w) == reference_bracket(L, v, w)
            assert L.form_value(v, w) == reference_form_value(L, v, w)


@pytest.mark.parametrize("kind", sorted(LOOP_ENTRIES))
def test_matrix_loops_match_their_dense_bodies(kind):
    rng = random.Random(kind)
    for _ in range(40):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a, b = _loop_matrix(rng, n, k, kind), _loop_matrix(rng, k, m, kind)
        assert mat_mul(a, b) == reference_mat_mul(a, b)
        v = _loop_vector(rng, k, kind)
        assert mat_apply(a, v) == reference_mat_apply(a, v)
        sq, sq2 = _loop_matrix(rng, n, n, kind), _loop_matrix(rng, n, n, kind)
        assert trace_product(sq, sq2) == reference_trace_product(sq, sq2)
        mats = [_loop_matrix(rng, n, n, kind) for _ in range(3)]
        coeffs = _loop_vector(rng, 3, kind, density=0.7)
        assert mat_combine(coeffs, mats, n) == reference_mat_combine(coeffs, mats, n)


@pytest.mark.parametrize("kind", sorted(LOOP_ENTRIES))
def test_subspace_loops_match_their_dense_bodies(kind):
    rng = random.Random(kind)
    for _ in range(30):
        n = rng.randint(1, 8)
        vectors = [_loop_vector(rng, n, kind) for _ in range(rng.randint(0, n))]
        sub = Subspace.from_vectors(n, vectors)
        # The same rows with fresh zero Scalars in place of the shared ZERO.
        fresh = Subspace(
            n,
            tuple(tuple(_fresh_zero() if x is ZERO else x for x in r) for r in sub.rows),
            sub.pivots,
        )
        assert fresh == sub
        members = [sub.combine(_loop_vector(rng, sub.dim, kind, 0.7))]
        for s in (sub, fresh):
            for v in vectors + members + [_loop_vector(rng, n, kind)]:
                assert s.residual(v) == reference_residual(s, v)
            for coeffs in [_loop_vector(rng, s.dim, kind, 0.7) for _ in range(3)]:
                assert s.combine(coeffs) == reference_combine(s, coeffs)
        for v in members:
            assert sub.contains(v)


def test_nonzero_entries_skip_every_zero():
    zero = _fresh_zero()
    row = [ZERO, ONE, zero, SQRT2, 0, -ONE]
    assert nonzero_entries(row) == [(1, ONE), (3, SQRT2), (5, -ONE)]
    assert nonzero_entries([zero, ZERO]) == []


def _far_apart_rows(rng, nrows, ncols, monomial):
    """Sparse rows whose occupied columns are a few far-apart columns, with
    every column between them zero; zeros come as the shared ZERO, fresh
    zero Scalars and int 0."""
    occupied = sorted(rng.sample(range(ncols), rng.randint(1, 6)))
    rows = []
    for _ in range(nrows):
        row = [rng.choice([ZERO, _fresh_zero(), 0]) for _ in range(ncols)]
        for j in rng.sample(occupied, rng.randint(0, len(occupied))):
            row[j] = scalar(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        rows.append(row)
    if monomial:
        u = [Scalar.of_radical(rng.choice(RADICANDS)) for _ in range(nrows)]
        t = [Scalar.of_radical(rng.choice(RADICANDS)) for _ in range(ncols)]
        rows = [
            [ui * x * tj if x else x for x, tj in zip(row, t)]
            for ui, row in zip(u, rows)
        ]
    return rows


@pytest.mark.parametrize("nrows, ncols", [(4, 200), (12, 90), (30, 60), (1, 150)])
@pytest.mark.parametrize("monomial", [False, True])
def test_rref_on_far_apart_columns_matches_the_scalar_loop(nrows, ncols, monomial):
    """rref visits only the columns some row occupies; rows whose occupied
    columns lie far apart give the Scalar elimination's rows and pivots."""
    rng = random.Random(1000 * nrows + ncols + monomial)
    for _ in range(6):
        rows = _far_apart_rows(rng, nrows, ncols, monomial)
        assert _labels(rows) is not None
        assert rref(rows) == _scalar_rref([to_vector(r) for r in rows])
        null = kernel_basis(rows, ncols)
        assert len(null) == ncols - len(rref(rows)[0])
