"""Block-by-block solves of linear matrix equations, checked against the
Fraction solve of the same equations written out one row per entry."""

from fractions import Fraction
import math
import random

import oracles
from affine_basis import blocksolve


def _matvec(a, x):
    return [sum(v * y for v, y in zip(row, x)) for row in a]


def test_matmul_matches_the_dense_product():
    rng = random.Random(29)
    for _ in range(50):
        n, m, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = _random_matrix(rng, n, m), _random_matrix(rng, m, k)
        dense = [[sum(a[i][p] * b[p][j] for p in range(m)) for j in range(k)] for i in range(n)]
        assert blocksolve.matmul(a, b, k) == dense


def _random_matrix(rng, n_rows, n_cols, density=0.5):
    return [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _expanded_solve(shapes, equations):
    """Oracle for the structured solves: the unknowns are the entries of
    matrices W_k of shapes[k] = (n2, n1), numbered key by key and row by
    row, and an equation (terms, K) reads sum over terms (k, L, R) of
    L W_k R = K.  Every entry of every equation is one sparse Fraction row,
    solved by oracles.solve_fraction.  Returns ({k: W as Fraction rows} or
    None, freedom)."""
    first, n = {}, 0
    for k, (n2, n1) in shapes.items():
        first[k] = n
        n += n2 * n1
    rows, rhs = [], []
    for terms, known in equations:
        for r, known_row in enumerate(known):
            for c, v in enumerate(known_row):
                row = {}
                for k, left, right in terms:
                    n1 = shapes[k][1]
                    for p, lv in enumerate(left[r]):
                        for q, right_row in enumerate(right):
                            if lv and right_row[c]:
                                col = first[k] + p * n1 + q
                                row[col] = row.get(col, 0) + Fraction(lv) * right_row[c]
                rows.append(row)
                rhs.append(v)
    x, null = oracles.solve_fraction(rows, rhs, n)
    if x is None:
        return None, len(null)
    return {k: [x[first[k] + p * n1 : first[k] + (p + 1) * n1] for p in range(n2)]
            for k, (n2, n1) in shapes.items()}, len(null)


def _one_sided(rng, w, most):
    """Random A W = R and W B = C, with up to `most` rows of A and columns
    of B, that the integer matrix w satisfies."""
    n2, n1 = len(w), len(w[0])
    a = _random_matrix(rng, rng.randint(0, most), n2)
    b = _random_matrix(rng, n1, rng.randint(0, most))
    r = [_matvec([list(col) for col in zip(*w)], row) for row in a]
    c = [_matvec([list(col) for col in zip(*b)], row) for row in w]
    return a, r, b, c


def _two_sided_rows(a, r, b, c):
    """solve_two_sided's rows [A row | R row] and [B column | C column], as
    dicts {column: int} of the nonzero entries."""
    left = [ra + rr for ra, rr in zip(a, r)]
    right = [[row[j] for row in b] + [row[j] for row in c] for j in range(len(b[0]))]
    return [_sparse(row) for row in left], [_sparse(row) for row in right]


def _sparse(row):
    return {k: x for k, x in enumerate(row) if x}


def _two_sided_equations(k, a, r, b, c):
    return [([(k, a, _identity(len(b)))], r), ([(k, _identity(len(c)), b)], c)]


def _holds(w, equations):
    """Whether the Fraction matrices w[k] satisfy every equation of
    _expanded_solve."""
    for terms, known in equations:
        total = [[Fraction(0)] * len(row) for row in known]
        for k, left, right in terms:
            prod = [[sum((left[r][p] * w[k][p][q] * right[q][c]
                          for p in range(len(w[k])) for q in range(len(w[k][p]))), Fraction(0))
                     for c in range(len(row))] for r, row in enumerate(known)]
            total = [[s + t for s, t in zip(rs, rt)] for rs, rt in zip(total, prod)]
        if total != known:
            return False
    return True


def test_solve_two_sided_matches_the_expanded_fraction_solve():
    # A W = R and W B = C for random A, B and W, sometimes with one entry of
    # R or C changed: no solution exactly when the expanded system has
    # none; else X / den solves both, ncols and mrows are independent
    # kernels of A and of B from the left, and the parameters are as many
    # as the expanded system's free variables
    rng = random.Random(31)
    seen = set()
    for _ in range(80):
        n2, n1 = rng.randint(1, 4), rng.randint(1, 4)
        a, r, b, c = _one_sided(rng, _random_matrix(rng, n2, n1, 1.0), 4)
        if r and rng.random() < 0.3:
            r[0][rng.randrange(n1)] += 1
        if c[0] and rng.random() < 0.3:
            c[0][rng.randrange(len(c[0]))] += 1
        sol = blocksolve.solve_two_sided(n2, n1, *map(iter, _two_sided_rows(a, r, b, c)))
        equations = _two_sided_equations(0, a, r, b, c)
        ref, freedom = _expanded_solve({0: (n2, n1)}, equations)
        seen.add(ref and min(freedom, 1))
        if ref is None:
            assert sol is None
            continue
        x, ncols, mrows, den = sol
        assert len(ncols) * len(mrows) == freedom
        w = [[Fraction(v, den) for v in row] for row in x]
        assert _holds({0: w}, equations)
        assert all(not any(_matvec(a, u)) for u in ncols)
        assert all(not any(_matvec([list(col) for col in zip(*b)], m)) for m in mrows)
        assert oracles.rank_fraction(ncols) == len(ncols)
        assert oracles.rank_fraction(mrows) == len(mrows)
        if not freedom:
            assert w == ref[0]
    assert seen == {None, 0, 1}


def test_solve_linked_matches_the_expanded_fraction_solve():
    # three unknown matrices with random one-sided equations, joined by
    # links W_i (a / d) = (b / d) W_2 and a self-link W_2 a = a W_2 that a
    # random W with W_2 = I satisfies (b = W_i a), and one fixed entry;
    # sometimes b or the fixed value is off by one.  Solvable exactly when
    # the expanded system is, with the same freedom, the same W where it is
    # unique and a solution where it is not, over a reduced denominator
    rng = random.Random(37)
    seen = set()
    for _ in range(80):
        n = rng.randint(1, 3)
        truth = [_random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 1.0) for _ in range(2)]
        truth.append(_identity(n))
        shapes = {k: (len(w), len(w[0])) for k, w in enumerate(truth)}
        solutions, equations, links = {}, [], []
        for k, w in enumerate(truth):
            a, r, b, c = _one_sided(rng, w, 3)
            solutions[k] = blocksolve.solve_two_sided(len(w), len(w[0]), *_two_sided_rows(a, r, b, c))
            equations += _two_sided_equations(k, a, r, b, c)
        for i in (0, 1, 2):
            a = _random_matrix(rng, shapes[i][1], n)
            b = a if i == 2 else [_matvec([list(col) for col in zip(*a)], row) for row in truth[i]]
            if rng.random() < 0.15:
                b = [list(row) for row in b]
                b[0][0] += 1
            d = rng.randint(1, 3)
            links.append((i, a, d, 2, b, d, n))
            over = [[Fraction(v, d) for v in row] for row in a]
            minus = [[Fraction(-v, d) for v in row] for row in b]
            equations.append(([(i, _identity(shapes[i][0]), over), (2, minus, _identity(n))],
                              [[0] * n for _ in b]))
        k = rng.randrange(3)
        v = truth[k][0][0] + (rng.random() < 0.15)
        unit = [[int(q == 0)] for q in range(shapes[k][1])]
        equations.append(([(k, [_identity(shapes[k][0])[0]], unit)], [[v]]))
        ref, freedom = _expanded_solve(shapes, equations)
        seen.add(ref and min(freedom, 1))
        got = None
        if None not in solutions.values():
            got = blocksolve.solve_linked(solutions, links, [(k, 0, 0, v)])
        if ref is None:
            assert got is None
            continue
        ws, den, n_free = got
        assert n_free == freedom
        assert den > 0 and math.gcd(den, *(x for rows in ws.values() for row in rows for x in row)) == 1
        w = {key: [[Fraction(x, den) for x in row] for row in rows] for key, rows in ws.items()}
        assert _holds(w, equations)
        if not freedom:
            assert w == ref
    assert seen == {None, 0, 1}
