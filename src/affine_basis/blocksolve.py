"""Exact solves of linear matrix equations, block by block, over the
integers.

solve_two_sided finds every matrix W with A W = R and W B = C: each side
is stacked into one system with several right-hand sides and reduced
once by linalg.echelon, and W comes out as a particular solution plus
kernel terms N Y M in a few free parameters Y.  solve_linked then solves
for several such matrices at once under equations W_i a = b W_j and fixed
entries: each is a matrix equation in the parameters, reduced by rows and
by columns (linalg.echelon again) to a few rows per parameter, and only
those rows go to linalg.solve_sparse; an equation whose matrices hold no
parameter is checked as an integer matrix.  The intertwiner's solve_w
solves its map so, which leaves solve_sparse a few hundred unknowns per
degree at most instead of one row per matrix entry.  matmul multiplies
integer matrices over their nonzero entries.  No elimination is written
here: this module reads the pivot rows linalg.echelon returns.

solve_sparse is called as linalg.solve_sparse, so a wrapper installed on
the linalg module sees every call.  This code is not part of linalg
because perfbench's child processes compile the package from source:
compiled inside linalg, which pbw imports early, it raised the peak RSS of
the basis-d5 workload, which never solves W, by 0.25 MB.
"""

import math

from . import linalg


def matmul(a, b, n_cols):
    """The product a.b of integer row lists, where b has n_cols columns
    (stated because b may have no rows), over the nonzero entries of a and
    b only."""
    b_terms = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * n_cols
        for x, terms in zip(row, b_terms):
            if x:
                for c, y in terms:
                    acc[c] += x * y
        out.append(acc)
    return out


def solve_two_sided(n2, n1, left_rows, right_rows):
    """Every n2 x n1 matrix W with A W = R and W B = C, from the integer
    rows [A row | R row] of `left_rows` (A with n2 columns, R with n1) and
    the integer rows [B column | C column] of `right_rows` (B with n1 rows,
    C with n2), each an iterable read once of dicts {column: int} (zero
    entries may be left out).  Returns (X, ncols, mrows, den)
    with W = (X + sum over i, j of Y[i][j] ncols[i] (x) mrows[j]) / den for
    every rational Y: X an integer n2 x n1 matrix, ncols a basis of ker A
    and mrows one of the left kernel of B, as integer vectors of length n2
    and n1.  None when there is no such W.

    Each system is eliminated once (linalg.echelon).  Its pivot rows,
    scaled to the lcm l2 (l1) of their pivots, read l2 W[p] + sum_f
    e2[p][f] W[f] = r2[p] for the pivot rows p of W and l1 W[:, q] + sum_g
    e1[q][g] W[:, g] = c1[q] for its pivot columns q.  The parameters Y are
    the entries on the free rows f and free columns g; a free row of a
    pivot column is read off the columns, a pivot row of a free column off
    the rows, and a pivot row of a pivot column off either, with the same
    terms in Y, so the two readings of its constant part must agree."""
    rows2 = linalg.echelon(left_rows, n2)
    rows1 = linalg.echelon(right_rows, n1)
    if any(p >= n2 for p in rows2) or any(q >= n1 for q in rows1):
        return None
    l2 = math.lcm(*(row[p] for p, row in rows2.items()))
    l1 = math.lcm(*(row[q] for q, row in rows1.items()))
    rows2 = {p: [row.get(c, 0) * (l2 // row[p]) for c in range(n2 + n1)] for p, row in rows2.items()}
    rows1 = {q: [row.get(c, 0) * (l1 // row[q]) for c in range(n1 + n2)] for q, row in rows1.items()}
    free2 = [f for f in range(n2) if f not in rows2]
    free1 = [g for g in range(n1) if g not in rows1]
    x = [[0] * n1 for _ in range(n2)]
    for f in free2:
        for q, c1 in rows1.items():
            x[f][q] = l2 * c1[n1 + f]
    for p, r2 in rows2.items():
        for g in free1:
            x[p][g] = l1 * r2[n2 + g]
        for q, c1 in rows1.items():
            v = l1 * r2[n2 + q] - sum(r2[f] * c1[n1 + f] for f in free2)
            if v != l2 * c1[n1 + p] - sum(r2[n2 + g] * c1[g] for g in free1):
                return None
            x[p][q] = v
    ncols = [[l2 * (f == h) if f in free2 else -rows2[f][h] for f in range(n2)] for h in free2]
    mrows = [[l1 * (g == h) if g in free1 else -rows1[g][h] for g in range(n1)] for h in free1]
    return x, ncols, mrows, l1 * l2


def solve_linked(solutions, links, fixed):
    """Solve jointly for matrices W_k = (X + sum over i, j of Y[i][j]
    ncols[i] (x) mrows[j]) / den, one solve_two_sided solution (X, ncols,
    mrows, den) per key of `solutions`, whose parameters Y must also
    satisfy every link (i, a, da, j, b, db, n), W_i (a / da) = (b / db) W_j
    for integer matrices a and b and a product with n columns, and every
    fixed entry (k, r, c, v), W_k[r][c] = v for an integer v.  The
    parameters are numbered key by key and row by row.  Each link and fixed
    entry is an integer matrix equation in them: one without parameters is
    checked as it stands, the others are reduced by rows and by columns to
    a few rows per parameter (_parameter_rows), and those rows go to
    solve_sparse, free parameters set to zero.  Returns (W, den, freedom):
    W maps each key to integer rows over the reduced common denominator
    den, and freedom is the number of parameters minus the rank of the
    rows; None when there is no solution.  Each X's rows are replaced in
    place and become W's."""
    first = {}
    nvars = 0
    for key, (_, ncols, mrows, _) in solutions.items():
        first[key] = nvars
        nvars += len(ncols) * len(mrows)
    rows = []
    rhs = []
    for key, r, c, v in fixed:
        x, ncols, mrows, den = solutions[key]
        sides = [(first[key], [u[r : r + 1] for u in ncols], [m[c : c + 1] for m in mrows])]
        if not _parameter_rows([[v * den - x[r][c]]], sides, rows, rhs):
            return None
    for i, a, da, j, b, db, n in links:
        xi, ni, mi, ei = solutions[i]
        # db ej (X_i + N_i Y_i M_i) a = da ei b (X_j + N_j Y_j M_j)
        xj, nj, mj, ej = solutions[j]
        known = [
            [da * ei * v - db * ej * u for u, v in zip(ru, rv)]
            for ru, rv in zip(matmul(xi, a, n), matmul(b, xj, n))
        ]
        sides = [
            (first[i], ni, [[db * ej * v for v in row] for row in matmul(mi, a, n)]),
            (first[j], matmul(nj, [list(col) for col in zip(*b)], len(b)),
             [[-da * ei * v for v in row] for row in mj]),
        ]
        if not _parameter_rows(known, sides, rows, rhs):
            return None
    ynums, yden, n_free = linalg.solve_sparse(rows, rhs, nvars)
    if ynums is None:
        return None
    out = {key: _value(sol, ynums[first[key] :], yden) for key, sol in solutions.items()}
    den = math.lcm(*(e for _, e in out.values()))
    for x, e in out.values():
        for r, row in enumerate(x):
            x[r] = [v * (den // e) for v in row]
    return {key: x for key, (x, _) in out.items()}, den, n_free


def _parameter_rows(known, sides, rows, rhs):
    """Append to (rows, rhs) the sparse rows, in the parameters, of the
    integer matrix equation sum over sides of U Y V = K.  A side (first,
    ucols, vrows) holds the parameters Y[i][j] = first + i * len(vrows) + j,
    with U's columns ucols and V's rows vrows.  The stacked U, with K, are
    reduced by rows (linalg.echelon), then the stacked V, with the reduced
    rows of K, by columns: the equation holds iff it holds on the rows and
    columns that survive, at most the summed widths of the U times the
    summed heights of the V.  A pivot in K's columns needs no check of its
    own.  A right row with no V entries is nonzero in some reduced row of
    K; with no such row, the right rows span the columns of the reduced K,
    so a left row with no U entries meets one of them in a nonzero entry.
    Either pair gives a row with no parameter and a nonzero right-hand
    side, which the loop below rejects.
    With no parameter it is a residual check, K == 0.  Returns False when
    the equation has no solution."""
    sides = [side for side in sides if side[1] and side[2]]
    if not sides:
        return not any(any(row) for row in known)
    width = sum(len(ucols) for _, ucols, _ in sides)
    height = sum(len(vrows) for _, _, vrows in sides)
    left = linalg.echelon(
        (dict(enumerate([u[r] for _, ucols, _ in sides for u in ucols] + row))
         for r, row in enumerate(known)),
        width,
    )
    left = list(left.values())
    right = linalg.echelon(
        (dict(enumerate([v[c] for _, _, vrows in sides for v in vrows]
                        + [lrow.get(width + c, 0) for lrow in left]))
         for c in range(len(sides[0][2][0]))),
        height,
    )
    for a, lrow in enumerate(left):
        for rrow in right.values():
            row = {}
            ui = vi = 0
            for first, ucols, vrows in sides:
                for i in range(len(ucols)):
                    x = lrow.get(ui + i)
                    if x:
                        for j in range(len(vrows)):
                            y = rrow.get(vi + j)
                            if y:
                                k = first + i * len(vrows) + j
                                row[k] = row.get(k, 0) + x * y
                ui += len(ucols)
                vi += len(vrows)
            row = {k: x for k, x in row.items() if x}
            b = rrow.get(height + a, 0)
            if row:
                g = math.gcd(b, *row.values())
                rows.append({k: x // g for k, x in row.items()})
                rhs.append(b // g)
            elif b:
                return False
    return True


def _value(solution, y, yden):
    """(W, den) for a solution (X, ncols, mrows, den) of solve_two_sided at
    the parameters Y[i][j] = y[i * len(mrows) + j] / yden: W integer rows
    over den, reduced by their common gcd.  X's rows are replaced in place
    and become W's."""
    x, ncols, mrows, den = solution
    if ncols and mrows:
        for r, row in enumerate(x):
            x[r] = [v * yden for v in row]
        k = 0
        for u in ncols:
            for v in mrows:
                if y[k]:
                    for r, ur in enumerate(u):
                        if ur:
                            x[r] = [a + y[k] * ur * b for a, b in zip(x[r], v)]
                k += 1
        den *= yden
    g = math.gcd(den, *(v for row in x for v in row))
    for r, row in enumerate(x):
        x[r] = [v // g for v in row]
    return x, den // g
