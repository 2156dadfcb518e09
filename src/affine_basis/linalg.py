"""Small exact linear algebra helpers over the integers.

Every routine here takes integer matrices and returns integers.  A Gram
matrix of the contravariant form is positive semidefinite, so it is
eliminated on its leading principal minors with no pivoting (Bareiss'
integer-preserving update): bordered_minor grows them one row at a time,
rank_int keeps the rows whose bordered minor is nonzero, and invert returns
an integer adjugate over the determinant of a positive definite matrix; both
raise ArithmeticError where positivity fails.  Every other integer system
goes through one Gauss-Jordan, echelon: sparse rows {column: int} with
right-hand sides as extra columns, kept primitive by dividing out their
content, finding the rows a new pivot must reduce through an index from
each non-pivot column to the pivot rows that hold it; a pivot in the
right-hand-side columns means no solution.  solve_sparse reads one
right-hand side's solution off it as integer numerators over one common
denominator.  The intertwiner reaches both through blocksolve, which
reduces each block of the map on its own by echelon and hands solve_sparse
only the rows that couple the blocks' free parameters, a few hundred
unknowns per degree at most.
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


def rank_int(gram):
    """Rank of a Gram matrix by the keep test of block selection: the rows
    are taken in order, and each is kept iff its bordered minor against the
    rows kept so far is nonzero.  The kept rows have a nonzero principal
    minor, so no symmetric matrix reads above its rank, and a positive
    semidefinite one reads exactly its rank.  Raises ArithmeticError on a
    negative bordered minor; an indefinite matrix may also read low
    ([[0, 1], [1, 0]] reads 0)."""
    cols, minors, kept = [], [1], []
    for n, row in enumerate(gram):
        u, d = bordered_minor(cols, minors, [row[k] for k in kept], row[n])
        if d < 0:
            raise ArithmeticError("Gram matrix is not positive semidefinite: row %d" % n)
        if d:
            cols.append(u)
            minors.append(d)
            kept.append(n)
    return len(kept)


def invert(a_rows):
    """Fraction-free inverse of a positive definite integer matrix a:
    (adj, det) with a.adj == det.I and det = det(a) > 0.  Bareiss'
    Gauss-Jordan on [a | I] with no row exchange: the k-th pivot is the
    k-th leading principal minor, and each division is exact since every
    entry is a minor of the augmented matrix.  Raises ArithmeticError on a
    pivot <= 0, that is, when a is not positive definite."""
    n = len(a_rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a_rows)]
    prev = 1
    for k in range(n):
        mk = m[k]
        p = mk[k]
        if p <= 0:
            raise ArithmeticError("matrix is not positive definite: minor %d is %d" % (k + 1, p))
        for i in range(n):
            if i != k:
                mi = m[i]
                f = mi[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(mi, mk)]
        prev = p
    return [row[n:] for row in m], prev
