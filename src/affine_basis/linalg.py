"""Small exact linear algebra helpers over the integers.

Every routine here takes integer matrices and returns integers.  Ranks of
large integer Gram matrices go through the kernel's fraction-free
elimination (kernels.rank_int).  bordered_minor grows the leading principal
minors of a symmetric integer matrix one row at a time (Bareiss'
integer-preserving update, used for basis selection); solve_sparse runs
Gauss-Jordan on integer rows kept primitive by dividing out their content
and returns its solution as integer numerators over one common denominator;
invert returns an integer adjugate over the determinant (Bareiss
Gauss-Jordan).
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
    pivot rows end up as the reduced row echelon form up to row scaling."""
    pivrows = {}
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
        for q, (qrow, qb) in pivrows.items():
            if p in qrow:
                qb = _eliminate(qrow, qb, p, r, bb)
                pivrows[q] = (qrow, _make_primitive(qrow, qb))
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
    """Fraction-free inverse of a square nonsingular integer matrix a.
    Returns (adj, det) with a.adj == det.I and det > 0: adj is the adjugate
    of a, negated when det(a) < 0.  Bareiss' integer-preserving
    Gauss-Jordan on [a | I], swapping rows on a zero pivot: every division
    is exact, since each entry is a minor of the augmented matrix, and the
    last pivot is +-det(a).  Raises ValueError when a is singular."""
    n = len(a_rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a_rows)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        mk = m[k]
        p = mk[k]
        for i in range(n):
            if i != k:
                mi = m[i]
                f = mi[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(mi, mk)]
        prev = p
    if prev < 0:
        return [[-x for x in row[n:]] for row in m], -prev
    return [row[n:] for row in m], prev
