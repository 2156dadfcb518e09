"""Small exact linear algebra helpers over the integers.

Every routine here takes integer matrices and returns integers.  A Gram
matrix of the contravariant form is positive semidefinite, and it is
eliminated once, on its leading principal minors with no pivoting (Bareiss'
integer-preserving update): bordered_minor grows them one row at a time, and
gram_factor keeps the rows whose bordered minor is nonzero, as pbw's block
scan keeps its candidates, raising ArithmeticError where positivity fails.
The other Gram jobs read that factor: rank_int counts its rows,
back_substitute takes the bordered column u of a vector p against the first
m rows to adj(G_m).p over D_m, gram_solve first borders p (u) and solves on
every row, and invert solves the unit vectors.
Every other integer system goes through one Gauss-Jordan, echelon: sparse
rows {column: int} with right-hand sides as extra columns, kept primitive by
dividing out their content, finding the rows a new pivot must reduce through
an index from each non-pivot column to the pivot rows that hold it; a pivot
in the right-hand-side columns means no solution.  solve_sparse reads one
right-hand side's solution off it as integer numerators over one common
denominator.  The intertwiner reaches both through blocksolve, which reduces
each block of the map on its own by echelon and hands solve_sparse only the
rows that couple the blocks' free parameters, a few hundred unknowns per
degree at most.
"""

from fractions import Fraction
import math

# Not used by the routines here: kept only because the benchmark's
# environment stamp reads it.
_Q = Fraction


def echelon(rows, n):
    """Gauss-Jordan elimination of integer rows given as dicts {column:
    int}, coefficients in the columns below n and right-hand sides from
    column n on; zero entries and empty rows are ignored, and the input
    rows are not modified.  Returns {pivot column: row}: primitive rows
    (content divided out), each pivoted on its smallest column and zero in
    every other pivot column below n, so the rows pivoted below n are the
    reduced row echelon form of the coefficients up to row scaling.  A row
    that reduces to right-hand sides alone takes a pivot at n or above, so
    such a pivot appears exactly when some right-hand side has no
    solution; such a row reduces no other row, and may replace an earlier
    one.  Without such a pivot the rows span the input rows.  Work scales
    with the nonzero structure, not the full matrix size.

    Column index.  `holders` maps each non-pivot column below n to the
    pivot columns of the rows it has entered, so a new pivot reduces
    exactly the rows that hold its column instead of testing every pivot
    row.  A column that later cancels out of a row leaves a stale entry,
    which is skipped.  Each row's reduction by the new pivot row does not
    depend on the others, so the result is the one a scan of every pivot
    row gives."""
    pivrows = {}
    holders = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        for c in list(r):
            if c in pivrows and c in r:
                _eliminate(r, c, pivrows[c])
        if not r:
            continue
        _make_primitive(r)
        p = min(r)
        others = [c for c in r if p < c < n]
        for q in holders.pop(p, ()):
            qrow = pivrows[q]
            if p not in qrow:
                continue  # stale: p cancelled out of row q
            for c in others:
                if c not in qrow:  # c enters row q now
                    holders.setdefault(c, []).append(q)
            _eliminate(qrow, p, r)
            _make_primitive(qrow)
        for c in others:
            holders.setdefault(c, []).append(p)
        pivrows[p] = r
    return pivrows


def solve_sparse(rows, rhs, nvars):
    """Exact solve of an integer system given as sparse rows: each row is a
    dict {column: int} and rhs a list of ints.  Returns (nums, den, n_free):
    the particular solution x = nums / den with free variables set to zero,
    as integer numerators over one positive common denominator with
    gcd(den, *nums) == 1, and the number of free variables; nums and den
    are None when the system is inconsistent.  The right-hand side is
    column nvars of one echelon, and the answer is read off its pivot
    rows."""
    pivrows = echelon(({**row, nvars: b} for row, b in zip(rows, rhs)), nvars)
    rank = sum(p < nvars for p in pivrows)
    if rank < len(pivrows):
        return None, None, nvars - rank
    # x[p] = row[nvars] / row[p]; den is the lcm of the reduced denominators
    den = math.lcm(*(row[p] // math.gcd(row.get(nvars, 0), row[p]) for p, row in pivrows.items()))
    nums = [0] * nvars
    for p, row in pivrows.items():
        nums[p] = row.get(nvars, 0) * den // row[p]
    return nums, den, nvars - rank


def _eliminate(r, c, prow):
    """Clear column c of the integer row r in place with the pivot row
    prow: r <- a*r - f*prow for a = prow[c], f = r[c], both divided by
    their gcd."""
    f = r.pop(c)
    g = math.gcd(prow[c], f)
    a, f = prow[c] // g, f // g
    if a != 1:
        for cc in r:
            r[cc] *= a
    for cc, v in prow.items():
        if cc != c:
            nv = r.get(cc, 0) - f * v
            if nv:
                r[cc] = nv
            else:
                del r[cc]


def _make_primitive(r):
    """Divide the nonzero integer row r by its content, in place."""
    g = math.gcd(*r.values())
    if g != 1:
        for c in r:
            r[c] //= g


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


def gram_factor(gram):
    """The keep test of block selection on a Gram matrix: each row in turn
    is kept iff its bordered minor against the rows kept so far is nonzero.
    Returns (cols, minors) of bordered_minor for the kept rows.  Raises
    ArithmeticError on a negative bordered minor."""
    cols, minors, kept = [], [1], []
    for n, row in enumerate(gram):
        u, d = bordered_minor(cols, minors, [row[k] for k in kept], row[n])
        if d < 0:
            raise ArithmeticError("Gram matrix is not positive semidefinite: row %d" % n)
        if d:
            cols.append(u)
            minors.append(d)
            kept.append(n)
    return cols, minors


def rank_int(gram):
    """Rank of a Gram matrix by the keep test (gram_factor): no symmetric
    matrix reads above its rank, a positive semidefinite one reads exactly
    it, and an indefinite one may raise or read low ([[0, 1], [1, 0]])."""
    return len(gram_factor(gram)[0])


def back_substitute(cols, minors, u):
    """adj(G_m).p for G_m the leading m x m block of a Gram matrix whose
    gram_factor is (cols, minors), m = len(u), and u the bordered column
    bordered_minor gives p against the first m rows (the row a block scan
    computes for a candidate it rejects): the fraction-free back-substitution
    D_{k+1} x_k = D_m u[k] - sum over m > l > k of cols[l][k] x_l, each
    division exact since x = D_m . G_m^-1 p (Bareiss, Math. Comp. 22, 1968).
    Rows of the factor past m are not read."""
    m = len(u)
    x = [minors[m] * t for t in u]
    for k in range(m - 1, -1, -1):
        xk = x[k] = x[k] // minors[k + 1]
        x[:k] = [a - c * xk for a, c in zip(x, cols[k])]
    return x


def gram_solve(cols, minors, p):
    """adj(G).p, for the gram_factor (cols, minors) of a positive definite
    G with det G = D_r = minors[-1]: p is eliminated as one more bordered
    column u, then back_substitute solves on all r rows.  A block scan
    keeps the u of each candidate it rejects, so this forward half runs
    only where no scan did: on blocks loaded from the disk cache
    (TruncatedModule.coordinates) and in invert."""
    return back_substitute(cols, minors, bordered_minor(cols, minors, p, 0)[0])


def invert(a_rows):
    """(adj, det) of a symmetric integer matrix a, with a.adj == det.I and
    det = det(a) > 0, by gram_solve on the unit vectors; ArithmeticError iff
    a is not positive definite.  Nothing in the package calls it: kept for
    the tests and the benchmark's wrapper."""
    cols, minors = gram_factor(a_rows)
    n = len(a_rows)
    if len(cols) < n:
        raise ArithmeticError("matrix is not positive definite")
    return [gram_solve(cols, minors, [int(i == j) for j in range(n)]) for i in range(n)], minors[-1]
