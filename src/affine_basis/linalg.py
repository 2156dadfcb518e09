"""Small exact linear algebra helpers over the rationals.

Ranks of large integer Gram matrices go through the kernel's fraction-free
elimination (kernels.rank_int).  The hot routines here are fraction-free as
well: bordered_minor grows the leading principal minors of a symmetric
integer matrix one row at a time (Bareiss' integer-preserving update, used
for basis selection), and solve_sparse runs Gauss-Jordan on integer rows
kept primitive by dividing out their content.  Rationals appear only in the
results they return.

The dense routines (nullspace, solve, invert) serve small outer-layer
systems and run on fractions.Fraction.
"""

from fractions import Fraction
import math

# The one rational type; the benchmark's environment stamp reads it.
_Q = Fraction


def _rref(rows):
    """Reduced row echelon form over Fraction, in place on a fresh copy.
    Returns (matrix, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = -1
        for rr in range(r, nr):
            if m[rr][c]:
                piv = rr
                break
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        mr = m[r]
        for rr in range(nr):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [a - f * b for a, b in zip(m[rr], mr)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def nullspace(rows):
    """Basis of the right nullspace (list of Fraction vectors), from RREF;
    deterministic: one basis vector per free column, in column order."""
    if not rows:
        return []
    nc = len(rows[0])
    m, pivots = _rref(rows)
    return _null_basis(m, pivots, nc)


def _null_basis(m, pivots, nc):
    """One nullspace vector per free column of the RREF m (pivots in
    columns below nc), in column order."""
    basis = []
    for fc in range(nc):
        if fc in pivots:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(a_rows, b):
    """Solve A x = b exactly.  Returns (particular, nullspace_basis) with
    particular None when inconsistent.  Free variables are set to zero, so
    the particular solution is deterministic.  One elimination serves both
    answers: the augmented RREF restricted to the coefficient columns is an
    RREF of A (the extra pivot, if any, sits in the constant column)."""
    nr = len(a_rows)
    nc = len(a_rows[0]) if nr else 0
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    m, pivots = _rref(aug)
    pivots_a = [p for p in pivots if p < nc]
    null = _null_basis(m, pivots_a, nc)
    if nc in pivots:
        return None, null
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots_a):
        x[pc] = m[r][nc]
    return x, null


def solve_sparse(rows, rhs, nvars):
    """Exact solve for sparse systems: each row is a dict {column: value}.
    Returns (particular, n_free) with particular None when inconsistent;
    free variables are set to zero.  Each equation is scaled to integers
    once; a fully reduced (Gauss-Jordan) set of primitive integer pivot rows
    is kept, keyed by pivot column (the smallest column of the row when it
    is added), so work scales with the nonzero structure instead of the full
    matrix size.  The pivot rows end up as the reduced row echelon form up
    to row scaling, so the answer is that of solve()."""
    pivrows = {}
    inconsistent = False
    for row, b in zip(rows, rhs):
        den = math.lcm(b.denominator, *(v.denominator for v in row.values()))
        r = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        bb = b.numerator * (den // b.denominator)
        for c in list(r):
            if c in pivrows and c in r:
                bb = _eliminate(r, bb, c, *pivrows[c])
        if not r:
            if bb:
                inconsistent = True
            continue
        bb = _make_primitive(r, bb)
        p = min(r)
        for q, (qrow, qb) in pivrows.items():
            if p in qrow:
                qb = _eliminate(qrow, qb, p, r, bb)
                pivrows[q] = (qrow, _make_primitive(qrow, qb))
        pivrows[p] = (r, bb)
    n_free = nvars - len(pivrows)
    if inconsistent:
        return None, n_free
    x = [Fraction(0)] * nvars
    for p, (prow, pb) in pivrows.items():
        x[p] = Fraction(pb, prow[p])
    return x, n_free


def _eliminate(r, b, c, prow, pb):
    """Clear column c of the integer row (r, b) in place with the pivot row
    (prow, pb): r <- a*r - f*prow for a = prow[c], f = r[c], both divided by
    their gcd.  Returns the new right-hand side."""
    f = r.pop(c)
    g = math.gcd(prow[c], f)
    a, f = prow[c] // g, f // g
    if a != 1:
        for cc in r:
            r[cc] *= a
        b *= a
    for cc, v in prow.items():
        if cc != c:
            nv = r.get(cc, 0) - f * v
            if nv:
                r[cc] = nv
            else:
                del r[cc]
    return b - f * pb


def _make_primitive(r, b):
    """Divide the nonzero integer row (r, b) by its content, in place;
    returns the new right-hand side."""
    g = math.gcd(b, *r.values())
    if g != 1:
        for c in r:
            r[c] //= g
        b //= g
    return b


def bordered_minor(cols, minors, p, nu):
    """One step of Bareiss' integer-preserving elimination on a symmetric
    integer matrix G, grown by one row and column.

    minors = [D_0 = 1, D_1, ..., D_r] are the leading principal minors of
    the current r x r matrix, all nonzero; cols[k] lists, for row k, its
    eliminated entries e(j)[k][j] for j < k, where e(j)[i][l] is the minor
    on rows 0..j-1, i and columns 0..j-1, l.  The border is the column p of
    entries against the r rows and the diagonal entry nu.  Returns (u, d):
    u[k] = e(k)[k][new], the new row's entry of cols should it be kept, and
    d = det of the bordered matrix = D_r times the Schur complement of nu.
    Every division is exact by Sylvester's identity (E. H. Bareiss,
    Math. Comp. 22, 1968)."""
    steps = list(zip(minors[1:], minors))
    u = []
    for t, col in zip(p, cols):
        for (dn, dp), cj, uj in zip(steps, col, u):
            t = (dn * t - cj * uj) // dp
        u.append(t)
    d = nu
    for (dn, dp), uj in zip(steps, u):
        d = (dn * d - uj * uj) // dp
    return u, d


def leading_minors(rows):
    """Leading principal minors [1, D_1, ..., D_n] of a symmetric integer
    matrix by the bordered_minor update; stops after the first zero minor
    (the update needs nonzero pivots beyond it)."""
    cols, minors = [], [1]
    for n, row in enumerate(rows):
        u, d = bordered_minor(cols, minors, [rows[k][n] for k in range(n)], row[n])
        minors.append(d)
        if not d:
            break
        cols.append(u)
    return minors


def invert(a_rows):
    """Inverse of a square nonsingular matrix, as Fraction rows; raises
    ValueError when singular."""
    n = len(a_rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a_rows)]
    m, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m[:n]]
