"""Exact integer linear algebra: Gram rank and inversion, the sparse
echelon and solve, and the bordered minors, checked against Fraction
references."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings, strategies as st
import pytest

import oracles
from affine_basis import linalg


def _matvec(a, x):
    return [sum(v * y for v, y in zip(row, x)) for row in a]


def _matmul(a, b):
    return [
        [
            sum((row[k] * b[k][c] for k in range(len(b))), Fraction(0))
            for c in range(len(b[0]))
        ]
        for row in a
    ]


def _gram(a, n):
    """The Gram matrix A^T A of the rows of a, each of length n."""
    return [[sum(row[i] * row[j] for row in a) for j in range(n)] for i in range(n)]


def _check_inverse(g):
    adj, det = linalg.invert(g)
    assert all(isinstance(x, int) for row in adj for x in row)
    assert det > 0 and det == oracles.det_fraction(g)
    assert [[Fraction(x, det) for x in row] for row in adj] == oracles.inverse_fraction(g)
    return adj, det


def test_invert_roundtrip_and_singular():
    rng = random.Random(19)
    done = singular = 0
    while done < 15:
        n = rng.randint(1, 5)
        g = _gram([[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n + 2))], n)
        if oracles.rank_fraction(g) < n:
            with pytest.raises(ArithmeticError):
                linalg.invert(g)
            singular += 1
            continue
        adj, det = _check_inverse(g)
        assert _matmul(g, adj) == [[det * int(i == j) for j in range(n)] for i in range(n)]
        done += 1
    assert singular
    assert linalg.invert([]) == ([], 1)
    with pytest.raises(ArithmeticError):
        linalg.invert([[1, 2], [2, 4]])  # the singular Gram of (1, 2)
    with pytest.raises(ArithmeticError):
        linalg.invert([[1, 2], [2, 1]])  # nonsingular but indefinite


def test_rank_int_on_known_matrices():
    ri = linalg.rank_int
    assert ri([]) == 0
    assert ri([[0, 0], [0, 0]]) == 0
    assert ri([[1, 2], [2, 4]]) == 1
    assert ri([[2, 1], [1, 2]]) == 2
    assert ri([[2, 0, 0], [0, 0, 0], [0, 0, 5]]) == 2
    # a negative bordered minor is impossible on a Gram matrix
    for bad in ([[1, 2], [2, 1]], [[0, 0], [0, -1]]):
        with pytest.raises(ArithmeticError):
            ri(bad)
    # indefinite with a zero diagonal: no row is kept, so it reads 0, at or
    # below its true rank of 2, as on any symmetric matrix
    assert ri([[0, 1], [1, 0]]) == 0


def _dense_from_sparse(rows, nvars):
    return [[row.get(c, 0) for c in range(nvars)] for row in rows]


def _check_against_the_fraction_solver(rows, rhs, nvars, result):
    """solve_sparse's (nums, den, n_free) against the dense Fraction solve:
    the same particular solution, as reduced integer numerators over one
    positive denominator, and the same number of free variables."""
    nums, den, n_free = result
    x_ref, null = oracles.solve_fraction(_dense_from_sparse(rows, nvars), rhs, nvars)
    assert n_free == len(null)
    if x_ref is None:
        assert nums is None and den is None
        return
    assert all(type(x) is int for x in nums) and type(den) is int
    assert den > 0 and math.gcd(den, *nums) == 1
    assert [Fraction(x, den) for x in nums] == x_ref


def test_solve_sparse_agrees_with_dense_solver():
    rng = random.Random(23)
    for _ in range(40):
        nvars = rng.randint(1, 8)
        neqs = rng.randint(1, 10)
        rows = []
        for _ in range(neqs):
            row = {}
            for c in range(nvars):
                if rng.random() < 0.4:
                    v = rng.randint(-4, 4)
                    if v:
                        row[c] = v
            rows.append(row)
        x_true = [rng.randint(-3, 3) for _ in range(nvars)]
        dense = _dense_from_sparse(rows, nvars)
        rhs = _matvec(dense, x_true)
        copies = [dict(row) for row in rows]
        result = linalg.solve_sparse(rows, rhs, nvars)
        assert rows == copies  # the input rows are not modified
        _check_against_the_fraction_solver(rows, rhs, nvars, result)
        nums, den, _ = result
        assert _matvec(dense, nums) == [den * b for b in rhs]
        # shifting the rhs by an integer left-nullspace vector y forces
        # inconsistency: y.rhs == 0 but y.(rhs + y) == y.y > 0
        left_null = oracles.nullspace_fraction([list(col) for col in zip(*dense)], neqs)
        if left_null:
            scale = math.lcm(*(x.denominator for x in left_null[0]))
            bad = [b + int(y * scale) for b, y in zip(rhs, left_null[0])]
            assert linalg.solve_sparse(rows, bad, nvars)[:2] == (None, None)


def test_solve_sparse_empty_and_zero_rows():
    assert linalg.solve_sparse([], [], 3) == ([0, 0, 0], 1, 3)
    # zero row with zero rhs is vacuous; with nonzero rhs inconsistent
    assert linalg.solve_sparse([{}], [0], 2) == ([0, 0], 1, 2)
    assert linalg.solve_sparse([{}], [1], 2) == (None, None, 2)
    # zero entries are ignored; x1 = 1/2 over the common denominator 2
    assert linalg.solve_sparse([{0: 0, 1: 2}], [1], 2) == ([0, 1], 2, 1)


def test_solve_sparse_skips_a_column_that_cancelled_out_of_a_pivot_row():
    # row 0 holds column 3 when it becomes a pivot row; pivot 2's row
    # cancels column 3 out of it, so when column 3 becomes a pivot the
    # index still lists row 0, which must be skipped, not reduced
    rows = [{0: 1, 2: 1, 3: 1}, {2: 1, 3: 1}, {3: 2, 4: 1}, {1: 3, 4: 1}]
    rhs = [1, 2, 3, 5]
    result = linalg.solve_sparse(rows, rhs, 5)
    _check_against_the_fraction_solver(rows, rhs, 5, result)
    assert result[2] == 1


# ---------------------------------------------------------------------------
# fraction-free routines against Fraction references (property tests)
# ---------------------------------------------------------------------------


def _schur_greedy_reference(g):
    """The Fraction selection the integer update replaces: scan the columns
    in order and keep each whose Schur complement against the kept ones is
    nonzero.  Returns (kept, complement of every candidate)."""
    kept, comps, inv = [], [], None
    for c in range(len(g)):
        p = [Fraction(g[k][c]) for k in kept]
        s = g[c][c] - sum(
            (p[i] * inv[i][j] * p[j] for i in range(len(p)) for j in range(len(p))),
            Fraction(0),
        )
        comps.append(s)
        if s:
            kept.append(c)
            inv = oracles.inverse_fraction([[g[i][j] for j in kept] for i in kept])
    return kept, comps


@st.composite
def symmetric_integer_matrices(draw):
    """(matrix, is_gram): random symmetric integer matrices, and Gram
    matrices A^T A, rank-deficient whenever A has fewer rows than columns."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        return _gram(a, n), True
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    return g, False


@settings(max_examples=300, deadline=None)
@given(symmetric_integer_matrices())
def test_bordered_minor_keep_test_matches_schur_complements(case):
    g, is_gram = case
    kept_ref, comps = _schur_greedy_reference(g)
    cols, minors, kept = [], [1], []
    for c in range(len(g)):
        u, d = linalg.bordered_minor(cols, minors, [g[k][c] for k in kept], g[c][c])
        # the bordered minor is D_r times the Schur complement, so the keep
        # tests agree
        assert d == minors[-1] * comps[c]
        if d:
            cols.append(u)
            minors.append(d)
            kept.append(c)
    assert kept == kept_ref
    assert minors == [
        oracles.det_fraction([[g[i][j] for j in kept[:r]] for i in kept[:r]])
        for r in range(len(kept) + 1)
    ]
    # rank_int applies the same keep test and raises at the first negative
    # minor, so on any symmetric matrix it never over-counts
    try:
        rank = linalg.rank_int(g)
    except ArithmeticError:
        assert any(d < 0 for d in minors)
    else:
        assert rank == len(kept) <= oracles.rank_fraction(g)
    if is_gram:
        # positive semidefinite: every kept minor is positive and the kept
        # vectors span, so their count is the rank
        assert all(d > 0 for d in minors)
        assert rank == oracles.rank_fraction(g)


@settings(max_examples=300, deadline=None)
@given(symmetric_integer_matrices())
def test_invert_matches_the_fraction_inverse(case):
    # a Gram matrix inverts iff it is nonsingular; any other symmetric
    # matrix iff every leading minor is positive (Sylvester's criterion)
    g, is_gram = case
    if is_gram:
        definite = oracles.inverse_fraction(g) is not None
    else:
        definite = all(
            oracles.det_fraction([row[:r] for row in g[:r]]) > 0 for r in range(1, len(g) + 1)
        )
    if definite:
        _check_inverse(g)
    else:
        with pytest.raises(ArithmeticError):
            linalg.invert(g)


@st.composite
def sparse_integer_systems(draw):
    """Sparse integer systems, consistent (the rhs of an integer solution)
    or with a random rhs, which is usually inconsistent."""
    nvars = draw(st.integers(1, 7))
    neqs = draw(st.integers(1, 8))
    entry = st.integers(-4, 4)
    rows = [
        draw(st.dictionaries(st.integers(0, nvars - 1), entry, max_size=nvars))
        for _ in range(neqs)
    ]
    if draw(st.booleans()):
        x_true = [draw(entry) for _ in range(nvars)]
        rhs = _matvec(_dense_from_sparse(rows, nvars), x_true)
    else:
        rhs = [draw(entry) for _ in range(neqs)]
    return rows, rhs, nvars


@settings(max_examples=150, deadline=None)
@given(sparse_integer_systems())
def test_solve_sparse_matches_the_dense_solver(system):
    rows, rhs, nvars = system
    _check_against_the_fraction_solver(rows, rhs, nvars, linalg.solve_sparse(rows, rhs, nvars))


@st.composite
def echelon_systems(draw):
    """Integer rows {column: int} with n coefficient columns and 0-3
    right-hand-side columns, zero entries and empty rows included: the
    right-hand sides of an integer solution, or random ones."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    entry = st.integers(-4, 4)
    coeffs = [draw(st.dictionaries(st.integers(0, n - 1), entry, max_size=n))
              for _ in range(draw(st.integers(0, 7)))]
    dense = _dense_from_sparse(coeffs, n)
    if draw(st.booleans()):
        x = [[draw(entry) for _ in range(k)] for _ in range(n)]
        rhs = [[sum(a * xr[j] for a, xr in zip(row, x)) for j in range(k)] for row in dense]
    else:
        rhs = [[draw(entry) for _ in range(k)] for _ in dense]
    rows = [{**row, **{n + j: b for j, b in enumerate(bs)}} for row, bs in zip(coeffs, rhs)]
    return rows, n, k


@settings(max_examples=150, deadline=None)
@given(echelon_systems())
def test_echelon_matches_the_fraction_elimination(system):
    # the pivots below n are the Fraction RREF's pivot columns, each row
    # is primitive, has no zero entry and is zero left of its pivot and in
    # every other pivot column below n; a pivot at n or above appears
    # exactly when some right-hand side has no solution, and otherwise the
    # rows span the input rows; zero entries and empty rows change nothing
    rows, n, k = system
    copies = [dict(row) for row in rows]
    pivots = linalg.echelon(rows, n)
    assert rows == copies
    dense = _dense_from_sparse(rows, n + k)
    coeff = [row[:n] for row in dense]
    ranks = [oracles.rank_fraction([row[:c] for row in coeff]) for c in range(n + 1)]
    assert sorted(p for p in pivots if p < n) == [c for c in range(n) if ranks[c + 1] > ranks[c]]
    for p, row in pivots.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and math.gcd(*row.values()) == 1
        assert not any(q in row for q in pivots if q != p and q < n)
    unsolvable = any(oracles.solve_fraction(coeff, [row[n + j] for row in dense], n)[0] is None
                     for j in range(k))
    assert any(p >= n for p in pivots) == unsolvable
    if not unsolvable:
        spanned = dense + _dense_from_sparse(pivots.values(), n + k)
        assert oracles.rank_fraction(spanned) == oracles.rank_fraction(dense) == len(pivots)
    nonzero = [{c: v for c, v in row.items() if v} for row in rows]
    assert linalg.echelon([row for row in nonzero if row], n) == pivots
