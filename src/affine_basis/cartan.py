"""Finite-dimensional symplectic Lie algebra of rank 2 (type C2), realized
concretely as 4x4 matrices, together with the exact structure constants the
rest of the package consumes.

Basis elements are indexed 0..9.  Each element x_{pq} is labelled by a weakly
decreasing pair of symbols from the ordered alphabet 1 > 2 > 2' > 1' (a prime
marks a "negative" symbol; ``b`` in identifiers).  The index order is chosen
so that plain integer comparison of indices realizes the lexicographic order
on symbol pairs:

    x11 > x12 > x12' > h1 > x22 > h2 > x21' > x2'2' > x2'1' > x1'1'
    (9)   (8)   (7)    (6)   (5)   (4)   (3)    (2)     (1)     (0)

Here h1 = x_{11'} and h2 = x_{22'} span the Cartan subalgebra.  All structure
constants (brackets, invariant form, weights) are *computed* from the matrix
realization rather than hard-coded, so the table is self-checking: matrices
are the single source of truth.

The invariant form is the matrix trace form tr(xy).  With this normalization
the highest root theta = 2*eps1 satisfies <theta, theta> = 2.
"""

from fractions import Fraction
import hashlib
import json

# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------

N = 4  # rows/columns are indexed by the symbols (1, 2, 2', 1')

X1B1B, X2B1B, X2B2B, X21B, H2, X22, H1, X12B, X12, X11 = range(10)

def _e(i, j):
    """Elementary matrix E_ij as a nested tuple."""
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(N)) for r in range(N)
    )


def _madd(a, b, sb=1):
    return tuple(
        tuple(a[r][c] + sb * b[r][c] for c in range(N)) for r in range(N)
    )


def _mmul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(N)) for c in range(N))
        for r in range(N)
    )


def _trace(a):
    return sum(a[i][i] for i in range(N))


def _commutator(a, b):
    return _madd(_mmul(a, b), _mmul(b, a), -1)


# Symbols occupy positions 0,1,2,3 = 1,2,2',1'.  The symplectic form is
# J = E14 + E23 - E32 - E41 (J^2 = -I); the algebra is {x : x^T J + J x = 0}.
MATRICES = (
    _e(3, 0),                    # x1'1'
    _madd(_e(2, 0), _e(3, 1)),   # x2'1'
    _e(2, 1),                    # x2'2'
    _madd(_e(1, 0), _e(3, 2), -1),  # x21'
    _madd(_e(1, 1), _e(2, 2), -1),  # h2  = x22'
    _e(1, 2),                    # x22
    _madd(_e(0, 0), _e(3, 3), -1),  # h1  = x11'
    _madd(_e(0, 1), _e(2, 3), -1),  # x12'
    _madd(_e(0, 2), _e(1, 3)),   # x12
    _e(0, 3),                    # x11
)


def _transpose(a):
    return tuple(tuple(a[c][r] for c in range(N)) for r in range(N))


def decompose(m):
    """Coordinates of a matrix in the basis above.

    Raises ValueError if the matrix is not in the span (the consistency of
    tied entries is checked), so every table built through this function is
    guaranteed to stay inside the algebra.
    """
    coords = [0] * 10
    coords[X11] = m[0][3]
    coords[X12] = m[0][2]
    coords[X22] = m[1][2]
    coords[X12B] = m[0][1]
    coords[X21B] = m[1][0]
    coords[X2B2B] = m[2][1]
    coords[X2B1B] = m[2][0]
    coords[X1B1B] = m[3][0]
    coords[H1] = m[0][0]
    coords[H2] = m[1][1]
    rebuilt = [[0] * N for _ in range(N)]
    for idx, c in enumerate(coords):
        if c:
            mat = MATRICES[idx]
            for r in range(N):
                for col in range(N):
                    rebuilt[r][col] += c * mat[r][col]
    if tuple(tuple(row) for row in rebuilt) != m:
        raise ValueError("matrix is not in the span of the basis")
    return coords


# ---------------------------------------------------------------------------
# structure table
# ---------------------------------------------------------------------------


class StructureTable:
    """Exact structure constants of the algebra, computed from matrices.

    Attributes:
        bracket:  bracket[i][j] = tuple of (coeff, k) with [b_i, b_j] =
                  sum coeff * b_k; coefficients are integers.
        form:     form[i][j] = <b_i, b_j> (trace form), integers.
        weights:  weights[i] = (a, b), the eps-coordinates of the weight of
                  b_i, read off from commutators with h1 and h2.
        sigma:    sigma[i] = index of the matrix transpose of b_i; transposing
                  is the contravariant involution (it negates weights and
                  fixes the Cartan pointwise).
    """

    VERSION = 1

    def __init__(self):
        self.bracket = tuple(
            tuple(
                tuple(
                    (c, k)
                    for k, c in enumerate(decompose(_commutator(MATRICES[i], MATRICES[j])))
                    if c
                )
                for j in range(10)
            )
            for i in range(10)
        )
        self.form = tuple(
            tuple(_trace(_mmul(MATRICES[i], MATRICES[j])) for j in range(10))
            for i in range(10)
        )
        self.weights = tuple(
            (self._eigen(H1, i), self._eigen(H2, i)) for i in range(10)
        )
        self.sigma = tuple(decompose(_transpose(MATRICES[i])).index(1) for i in range(10))

    def _eigen(self, h, i):
        """Eigenvalue of ad(b_h) on b_i (b_i is a weight vector by construction)."""
        terms = self.bracket[h][i]
        if not terms:
            return 0
        (c, k), = terms
        if k != i:
            raise ValueError("basis element %d is not an ad-eigenvector" % i)
        return c


def table_hash(table):
    """Stable content hash of the structure constants (used to key caches)."""
    canonical = json.dumps(
        [table.VERSION, table.bracket, table.form, table.weights, table.sigma],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_TABLE = None


def build_c2():
    """The structure table (built once, then shared)."""
    global _TABLE
    if _TABLE is None:
        _TABLE = StructureTable()
    return _TABLE


# ---------------------------------------------------------------------------
# roots and weights
# ---------------------------------------------------------------------------

# eps-coordinates; the normalized invariant pairing on weight space makes the
# long roots have square length 2 (matching the trace form via nu).
OMEGA2 = (1, 1)         # fundamental weight for alpha2 (minuscule coweight dir.)


def inner(u, v):
    """Normalized invariant pairing on weight space: <eps_i, eps_j> = delta/2."""
    return Fraction(u[0] * v[0] + u[1] * v[1], 2)


def finite_weight(k1, k2):
    """eps-coordinates of k1*omega1 + k2*omega2."""
    return (k1 + k2, k2)


def a1_subalgebra():
    """Generator indices of the subalgebra generated by the long root theta:
    (f, h, e) = (x1'1', h1, x11).  The triple spans a subalgebra of type A1;
    pbw.VermaModule checks that its generators close under the bracket."""
    return (X1B1B, H1, X11)
