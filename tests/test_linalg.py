"""Exact integer linear algebra: inversion, sparse solve and the bordered
minors, checked against Fraction references."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings, strategies as st
import pytest

import oracles
from affine_basis import kernels, linalg


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


def test_invert_roundtrip_and_singular():
    rng = random.Random(19)
    done = 0
    while done < 15:
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if kernels.rank_int(a) < n:
            continue
        adj, det = linalg.invert(a)
        assert det > 0
        assert _matmul(a, adj) == [[det * int(i == j) for j in range(n)] for i in range(n)]
        done += 1
    assert linalg.invert([]) == ([], 1)
    with pytest.raises(ValueError):
        linalg.invert([[1, 2], [2, 4]])


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
def square_integer_matrices(draw):
    """Random square integer matrices: dense ones (mostly nonsingular),
    ones with a zero leading entry or a zero leading 2 x 2 minor, which
    need a row swap, and singular ones with a repeated combination of
    rows."""
    n = draw(st.integers(1, 6))
    a = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["dense", "zero corner", "zero minor", "singular"]))
    if shape == "zero corner":
        a[0][0] = 0
    elif shape == "zero minor" and n >= 2:
        a[1] = [2 * x for x in a[0][:2]] + a[1][2:]
    elif shape == "singular" and n >= 2:
        k = draw(st.integers(-2, 2))
        a[-1] = [x + k * y for x, y in zip(a[0], a[1 % (n - 1)])]
    return a


@settings(max_examples=300, deadline=None)
@given(square_integer_matrices())
def test_invert_matches_the_fraction_inverse(a):
    reference = oracles.inverse_fraction(a)
    if reference is None:
        with pytest.raises(ValueError):
            linalg.invert(a)
        return
    adj, det = linalg.invert(a)
    assert all(isinstance(x, int) for row in adj for x in row)
    assert det > 0 and det == abs(oracles.det_fraction(a))
    assert [[Fraction(x, det) for x in row] for row in adj] == reference


@st.composite
def symmetric_integer_matrices(draw):
    """(matrix, is_gram): random symmetric integer matrices, and Gram
    matrices A^T A, rank-deficient whenever A has fewer rows than columns."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        return [[sum(row[i] * row[j] for row in a) for j in range(n)] for i in range(n)], True
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
    assert linalg.leading_minors([[g[i][j] for j in kept] for i in kept]) == minors
    if is_gram:
        # positive semidefinite: every kept minor is positive and the kept
        # vectors span, so their count is the rank
        assert all(d > 0 for d in minors)
        assert len(kept) == kernels.rank_int(g)


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
