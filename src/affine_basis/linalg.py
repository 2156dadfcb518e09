"""Small exact linear algebra helpers over the integers.

Every routine here takes integer matrices and returns integers.  A Gram
matrix of the contravariant form is positive semidefinite, so it is
eliminated on its leading principal minors with no pivoting (Bareiss'
integer-preserving update): bordered_minor grows them one row at a time,
rank_int keeps the rows whose bordered minor is nonzero, and invert returns
an integer adjugate over the determinant of a positive definite matrix; both
raise ArithmeticError where positivity fails.  solve_sparse runs
Gauss-Jordan on integer rows kept primitive by dividing out their content,
finding the rows a new pivot must reduce through an index from each
non-pivot column to the pivot rows that hold it, and returns its solution
as integer numerators over one common denominator.  The intertwiner
reaches it through blocksolve.solve_linked, which eliminates each block of
the map on its own first and hands solve_sparse only the rows that couple
the blocks' free parameters, a few hundred unknowns per degree at most.
"""

from fractions import Fraction
import math

# Not used by the routines here: kept only because the benchmark's
# environment stamp reads it.
_Q = Fraction


def solve_sparse(rows, rhs, nvars):
    """Exact solve of an integer system given as sparse rows: each row is a
    dict {column: int} and rhs a list of ints.  Returns (nums, den, n_free):
    the particular solution x = nums / den with free variables set to zero,
    as integer numerators over one positive common denominator with
    gcd(den, *nums) == 1, and the number of free variables; nums and den
    are None when the system is inconsistent.  A fully reduced
    (Gauss-Jordan) set of primitive integer pivot rows is kept, keyed by
    pivot column (the smallest column of the row when it is added), so work
    scales with the nonzero structure instead of the full matrix size.  The
    pivot rows end up as the reduced row echelon form up to row scaling.

    Column index.  `holders` maps each non-pivot column to the pivot
    columns of the rows it has entered, so a new pivot reduces exactly the
    rows that hold its column instead of testing every pivot row.  A column
    that later cancels out of a row leaves a stale entry, which is skipped.
    Each row's reduction by the new pivot row does not depend on the
    others, so the result is the one a scan of every pivot row gives."""
    pivrows = {}
    holders = {}
    inconsistent = False
    for row, bb in zip(rows, rhs):
        r = {c: v for c, v in row.items() if v}
        for c in list(r):
            if c in pivrows and c in r:
                bb = _eliminate(r, bb, c, *pivrows[c])
        if not r:
            if bb:
                inconsistent = True
            continue
        bb = _make_primitive(r, bb)
        p = min(r)
        others = [c for c in r if c != p]
        for q in holders.pop(p, ()):
            qrow, qb = pivrows[q]
            if p not in qrow:
                continue  # stale: p cancelled out of row q
            for c in others:
                if c not in qrow:  # c enters row q now
                    holders.setdefault(c, []).append(q)
            qb = _eliminate(qrow, qb, p, r, bb)
            pivrows[q] = (qrow, _make_primitive(qrow, qb))
        for c in others:
            holders.setdefault(c, []).append(p)
        pivrows[p] = (r, bb)
    n_free = nvars - len(pivrows)
    if inconsistent:
        return None, None, n_free
    # x[p] = pb / prow[p]; den is the lcm of the reduced denominators
    den = math.lcm(*(prow[p] // math.gcd(pb, prow[p]) for p, (prow, pb) in pivrows.items()))
    nums = [0] * nvars
    for p, (prow, pb) in pivrows.items():
        nums[p] = pb * den // prow[p]
    return nums, den, n_free


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
