"""Exact linear algebra: nullspaces, solving, inversion, sparse solve, and
the fraction-free routines checked against Fraction references."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings, strategies as st
import pytest

import oracles
from affine_basis import kernels, linalg


def _rand_matrix(rng, nr, nc, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(nc)] for _ in range(nr)]


def _matvec(a, x):
    return [sum((row[i] * x[i] for i in range(len(x))), Fraction(0)) for row in a]


def _matmul(a, b):
    return [
        [
            sum((row[k] * b[k][c] for k in range(len(b))), Fraction(0))
            for c in range(len(b[0]))
        ]
        for row in a
    ]


def _rank(rows):
    """Reference rank: each rational row scaled to integers, then the
    kernel's fraction-free elimination."""
    scaled = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(x * den) for x in row])
    return kernels.rank_int(scaled)


def test_nullspace_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = _rand_matrix(rng, nr, nc)
        basis = linalg.nullspace(a)
        assert len(basis) == nc - _rank(a)
        for v in basis:
            assert _matvec(a, v) == [Fraction(0)] * nr
        # basis vectors are independent
        if basis:
            assert _rank(basis) == len(basis)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(17)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = _rand_matrix(rng, nr, nc)
        x_true = [Fraction(rng.randint(-4, 4)) for _ in range(nc)]
        b = _matvec(a, x_true)
        x, null = linalg.solve(a, b)
        assert x is not None
        assert _matvec(a, x) == b
        assert len(null) == nc - _rank(a)
        for v in null:
            assert _matvec(a, v) == [Fraction(0)] * nr
    # a visibly inconsistent system
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    x, null = linalg.solve(a, [Fraction(1), Fraction(3)])
    assert x is None
    assert len(null) == 1


def test_invert_roundtrip_and_singular():
    rng = random.Random(19)
    done = 0
    while done < 15:
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if _rank(a) < n:
            continue
        adj, det = linalg.invert(a)
        assert det > 0
        assert _matmul(a, adj) == [[det * int(i == j) for j in range(n)] for i in range(n)]
        done += 1
    assert linalg.invert([]) == ([], 1)
    with pytest.raises(ValueError):
        linalg.invert([[1, 2], [2, 4]])


def _dense_from_sparse(rows, nvars):
    return [
        [Fraction(row.get(c, 0)) for c in range(nvars)] for row in rows
    ]


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
                        row[c] = Fraction(v)
            rows.append(row)
        x_true = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        dense = _dense_from_sparse(rows, nvars)
        rhs = _matvec(dense, x_true)
        x, n_free = linalg.solve_sparse(rows, rhs, nvars)
        assert x is not None
        assert _matvec(dense, x) == rhs
        assert n_free == len(linalg.nullspace(dense))
        # shifting the rhs by a left-nullspace vector forces inconsistency:
        # the shifted rhs is no longer orthogonal to that vector
        left_null = linalg.nullspace([list(col) for col in zip(*dense)])
        if left_null:
            bad = [rhs[i] + left_null[0][i] for i in range(neqs)]
            x2, _ = linalg.solve_sparse(rows, bad, nvars)
            assert x2 is None


def test_solve_sparse_empty_and_zero_rows():
    x, n_free = linalg.solve_sparse([], [], 3)
    assert x == [Fraction(0)] * 3
    assert n_free == 3
    # zero row with zero rhs is vacuous; with nonzero rhs inconsistent
    x, n_free = linalg.solve_sparse([{}], [Fraction(0)], 2)
    assert x == [Fraction(0), Fraction(0)] and n_free == 2
    x, n_free = linalg.solve_sparse([{}], [Fraction(1)], 2)
    assert x is None


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
def sparse_rational_systems(draw):
    nvars = draw(st.integers(1, 7))
    neqs = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = [
        draw(st.dictionaries(st.integers(0, nvars - 1), entry, max_size=nvars))
        for _ in range(neqs)
    ]
    if draw(st.booleans()):
        x_true = [draw(entry) for _ in range(nvars)]
        rhs = _matvec(_dense_from_sparse(rows, nvars), x_true)
    else:
        rhs = [draw(entry) for _ in range(neqs)]  # usually inconsistent
    return rows, rhs, nvars


@settings(max_examples=150, deadline=None)
@given(sparse_rational_systems())
def test_solve_sparse_matches_the_dense_solver(system):
    rows, rhs, nvars = system
    x, n_free = linalg.solve_sparse(rows, rhs, nvars)
    x_dense, null = linalg.solve(_dense_from_sparse(rows, nvars), rhs)
    assert x == x_dense
    assert n_free == len(null)
