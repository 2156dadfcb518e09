"""Independent oracles for the test suite.

Everything here is deliberately reimplemented from first principles, without
calling into the package internals being tested: plain 4x4 matrix arithmetic
for the finite algebra, the loop bracket with its central term over given
structure constants, the Euler recurrence for partition numbers, a direct
search for colored partitions and for PBW monomials, Fraction elimination
for solves, nullspaces, inverses and determinants and for the intertwiner's
commutation identity, the Weyl group of the finite weights, and a
nondeterministic-order rewriting engine for normal ordering.  When the
package and an oracle agree, the agreement is between two codepaths that
share nothing but the definitions.
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# finite algebra oracle: 4x4 matrices, commutators, trace form
# ---------------------------------------------------------------------------

N = 4


def e(i, j):
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(N)) for r in range(N)
    )


def madd(a, b, sb=1):
    return tuple(
        tuple(a[r][c] + sb * b[r][c] for c in range(N)) for r in range(N)
    )


def mmul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(N)) for c in range(N))
        for r in range(N)
    )


def commutator(a, b):
    return madd(mmul(a, b), mmul(b, a), -1)


def trace(a):
    return sum(a[i][i] for i in range(N))


def transpose(a):
    return tuple(tuple(a[c][r] for c in range(N)) for r in range(N))


# Rows/columns carry the symbols (1, 2, 2', 1'); J is the symplectic form.
J = madd(madd(e(0, 3), e(1, 2)), madd(e(2, 1), e(3, 0)), -1)

# The ten basis matrices, in the package's index order 0..9; each long root
# vector is a single elementary matrix, each short root vector a sum of two,
# and the Cartan elements are the diagonal coordinate differences.
BASIS = (
    e(3, 0),                      # 0  x1'1'   weight (-2, 0)
    madd(e(2, 0), e(3, 1)),       # 1  x2'1'   weight (-1, -1)
    e(2, 1),                      # 2  x2'2'   weight (0, -2)
    madd(e(1, 0), e(3, 2), -1),   # 3  x21'    weight (-1, 1)
    madd(e(1, 1), e(2, 2), -1),   # 4  h2
    e(1, 2),                      # 5  x22     weight (0, 2)
    madd(e(0, 0), e(3, 3), -1),   # 6  h1
    madd(e(0, 1), e(2, 3), -1),   # 7  x12'    weight (1, -1)
    madd(e(0, 2), e(1, 3)),       # 8  x12     weight (1, 1)
    e(0, 3),                      # 9  x11     weight (2, 0)
)


def in_sp4(m):
    """Membership in the symplectic algebra: m^T J + J m = 0."""
    lhs = madd(mmul(transpose(m), J), mmul(J, m))
    return all(all(x == 0 for x in row) for row in lhs)


def decompose(m):
    """Coordinates of m in BASIS, by Gaussian elimination on the flattened
    16 x 10 system (self-contained; exact)."""
    cols = [[mat[r][c] for mat in BASIS] for r in range(N) for c in range(N)]
    rhs = [m[r][c] for r in range(N) for c in range(N)]
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(cols, rhs)]
    nv = len(BASIS)
    piv = []
    r = 0
    for c in range(nv):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        f = rows[r][c]
        rows[r] = [x / f for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][nv]:
            raise ValueError("matrix is outside the span of the basis")
    out = [Fraction(0)] * nv
    for i, c in enumerate(piv):
        out[c] = rows[i][nv]
    return out


def bracket_coeffs(i, j):
    """Structure constants [b_i, b_j] as a dict {index: int}."""
    coords = decompose(commutator(BASIS[i], BASIS[j]))
    out = {}
    for k, x in enumerate(coords):
        if x:
            assert x.denominator == 1
            out[k] = int(x)
    return out


def form_value(i, j):
    """Invariant form <b_i, b_j>: the 4x4 matrix trace form."""
    return trace(mmul(BASIS[i], BASIS[j]))


def coroot_pairing(weight, root):
    """<weight, root^vee> = 2<weight, root>/<root, root>, for eps-coordinate
    weights (the eps basis is orthogonal, so the common scale cancels)."""
    return Fraction(2 * (weight[0] * root[0] + weight[1] * root[1]), root[0] ** 2 + root[1] ** 2)


# ---------------------------------------------------------------------------
# loop algebra: the bracket with its central term
# ---------------------------------------------------------------------------


def loop_bracket(le1, le2, bracket, form):
    """[x(i), y(j)] = [x, y](i+j) + i <x, y> delta_{i+j,0} c for loop codes
    le = 16 * mode + base, over finite structure constants given as
    bracket(b1, b2) -> {base: coeff} and form(b1, b2).  Returns
    ({code: coeff}, central coefficient)."""
    i, b1 = divmod(le1, 16)
    j, b2 = divmod(le2, 16)
    terms = {16 * (i + j) + k: c for k, c in bracket(b1, b2).items() if c}
    return terms, (i * form(b1, b2) if i + j == 0 else 0)


# ---------------------------------------------------------------------------
# lattice character oracle for the level-1 vacuum module of the rank-1 case
# ---------------------------------------------------------------------------


def partition_numbers(limit):
    """p(0..limit) by the Euler pentagonal recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def a1_level1_block_dim(degree, m):
    """dim of the (degree, weight 2m in the long-root direction) block of
    the level-1 vacuum module: p(degree - m^2)."""
    rem = degree - m * m
    if rem < 0:
        return 0
    return partition_numbers(rem)[rem]


def a1_level1_degree_dim(degree):
    """Total dimension of one degree slice: sum over m of p(degree - m^2)."""
    total = 0
    m = 0
    while m * m <= degree:
        total += a1_level1_block_dim(degree, m)
        if m:
            total += a1_level1_block_dim(degree, -m)
        m += 1
    return total


# degrees 0..6, precomputed by hand from the two formulas above
A1_LEVEL1_DIMS = (1, 3, 4, 7, 13, 19, 29)


# ---------------------------------------------------------------------------
# colored partitions by direct search
# ---------------------------------------------------------------------------


def brute_force_colored(max_degree, freq_cap):
    """All colored partitions with degree <= max_degree and every frequency
    <= freq_cap, as canonical triples (a, b, c) of ((size, freq), ...) pairs.
    Enumerates parts directly (size by size, color by color) instead of
    recursing over frequency vectors."""
    per_size = []
    for j in range(max_degree + 1):
        cap = freq_cap if j == 0 else min(freq_cap, max_degree // j)
        per_size.append(
            [
                (aj, bj, cj)
                for aj in range(cap + 1)
                for bj in range(cap + 1)
                for cj in range(cap + 1)
            ]
        )
    combos = [((), 0)]  # frequency triples of the sizes so far, degree
    for j, options in enumerate(per_size):
        combos = [
            (combo + (f,), degree + j * sum(f))
            for combo, degree in combos
            for f in options
            if degree + j * sum(f) <= max_degree
        ]
    out = set()
    for combo, _ in combos:
        a = tuple((j, f[0]) for j, f in enumerate(combo) if f[0])
        b = tuple((j, f[1]) for j, f in enumerate(combo) if f[1])
        c = tuple((j, f[2]) for j, f in enumerate(combo) if f[2])
        out.add((a, b, c))
    return out


def literal_word_reference(pi, bases):
    """The literal factor order of a colored partition by a per-size loop,
    as (mode, base) pairs: sizes from the largest part down to 0, and
    within one size the c, b, a factors in that order."""
    freqs = {"a": dict(pi.a), "b": dict(pi.b), "c": dict(pi.c)}
    top = max([0] + [j for f in freqs.values() for j in f])
    word = []
    for j in range(top, -1, -1):
        for color in ("c", "b", "a"):
            word.extend([(-j, bases[color])] * freqs[color].get(j, 0))
    return word


def check_dc_text(freqs, k):
    """Difference conditions straight from their inequality text; freqs is a
    function (color, size) -> frequency."""
    sizes = [j for _, j in freqs.keys() if freqs[_, j]] if freqs else []
    top = max(sizes) if sizes else 0

    def f(color, j):
        return freqs.get((color, j), 0)

    for i in range(top + 2):
        if f("a", i) + f("b", i) + f("a", i + 1) > k:
            return False
        if f("c", i) + f("b", i) + f("a", i + 1) > k:
            return False
        if f("c", i) + f("b", i + 1) + f("a", i + 1) > k:
            return False
        if f("c", i) + f("b", i + 1) + f("c", i + 1) > k:
            return False
    return True


# ---------------------------------------------------------------------------
# PBW monomials of a block by direct search
# ---------------------------------------------------------------------------


def decode(code):
    """(mode, base) of a loop code 16*mode + base; the mode is the floor
    quotient by 16."""
    return divmod(code, 16)


def is_normal_ordered(word):
    """A word of codes 16*mode + base is a normal-ordered monomial: its
    codes weakly decrease and each is storable (negative mode, or mode 0
    with base 0..3, i.e. code < 4)."""
    return all(code < 4 for code in word) and all(a >= b for a, b in zip(word, word[1:]))


def tag_of(code, tags):
    """Name of the loop element with code 16*mode + base, as
    "<tags[base]>(<mode>)"; the mode is the floor quotient by 16."""
    return "%s(%d)" % (tags[code % 16], code // 16)


def pbw_monomials(gens, weights, lam, degree, weight):
    """Every normal-ordered monomial over the generator bases `gens` whose
    vector lies in the (degree, weight) block of the highest weight module
    of finite weight `lam`, in decreasing order.  A monomial is a weakly
    decreasing tuple of storable codes 16*mode + base (negative mode, or
    mode 0 with base 0..3); its modes sum to -degree and its base weights
    (`weights[base]`) to weight - lam.  Searched as multisets of codes,
    negative modes first: their degrees must add up to `degree`, and then
    each mode-0 factor lowers 2*w1 + w2 by at least 1, which bounds the
    mode-0 factors by the target."""
    target = (weight[0] - lam[0], weight[1] - lam[1])
    floor = 2 * target[0] + target[1]
    codes = [16 * -n + b for n in range(degree, 0, -1) for b in gens]
    codes += [b for b in gens if b < 4]
    out = []

    def rec(i, mono, deg, wt):
        if deg == degree and wt == target:
            out.append(tuple(sorted(mono, reverse=True)))
            return
        if i == len(codes):
            return
        code = codes[i]
        n, w = -(code >> 4), weights[code & 15]
        if not n and deg < degree:
            return  # only mode-0 codes are left
        nxt = (wt[0] + w[0], wt[1] + w[1])
        if deg + n <= degree if n else 2 * nxt[0] + nxt[1] >= floor:
            rec(i, mono + [code], deg + n, nxt)
        rec(i + 1, mono, deg, wt)

    rec(0, [], 0, (0, 0))
    return sorted(out, reverse=True)


def zero_by_monomials(module, vec):
    """True iff a homogeneous vector pairs to zero with every PBW monomial
    of its block: the radical of the contravariant form, tested directly,
    with neither positivity nor a block basis.  The block is read off one
    term: degree minus the sum of the modes, weight the highest weight plus
    the bases' weights."""
    if not vec:
        return True
    term = next(iter(vec))
    weights = module.table.weights
    degree = -sum(decode(code)[0] for code in term)
    weight = tuple(
        module.lam_wt[i] + sum(weights[decode(code)[1]][i] for code in term) for i in (0, 1)
    )
    monos = pbw_monomials(module.gens, weights, module.lam_wt, degree, weight)
    return all(module.kernel.pair_mono(m, vec) == 0 for m in monos)


def gram(pair, items):
    """The full Gram matrix [[pair(a, b) for b in items] for a in items]."""
    return [[pair(a, b) for b in items] for a in items]


# ---------------------------------------------------------------------------
# dense linear algebra over Fraction, and the intertwiner identity
# ---------------------------------------------------------------------------


def _rref_fraction(rows):
    """Reduced row echelon form over Fraction of a fresh copy of rows.
    Returns (matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((rr for rr in range(r, len(m)) if m[rr][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _null_basis_fraction(m, pivots, nc):
    """One nullspace vector per free column of the RREF m, in column order."""
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


def nullspace_fraction(rows, nc):
    """Basis of the right nullspace of a matrix with nc columns, one Fraction
    vector per free column of its RREF, in column order."""
    if not rows:
        return _null_basis_fraction([], [], nc)
    m, pivots = _rref_fraction(rows)
    return _null_basis_fraction(m, pivots, nc)


def solve_fraction(a_rows, b, nc):
    """Solve A x = b over Fraction for a matrix with nc columns.  Returns
    (particular, nullspace basis), particular None when inconsistent and
    with its free variables set to zero otherwise."""
    m, pivots = _rref_fraction([list(row) + [bv] for row, bv in zip(a_rows, b)])
    pivots_a = [p for p in pivots if p < nc]
    null = _null_basis_fraction(m, pivots_a, nc)
    if nc in pivots:
        return None, null
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots_a):
        x[pc] = m[r][nc]
    return x, null


def inverse_fraction(rows):
    """Inverse of a square matrix by Fraction RREF of [a | I], or None when
    it is singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def det_fraction(rows):
    """Determinant by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _fraction_matmul(a, b, n_cols):
    return [
        [sum((row[k] * b[k][c] for k in range(len(b))), Fraction(0)) for c in range(n_cols)]
        for row in a
    ]


def commutes_fraction(source, target, wmap, loop_elements, max_degree):
    """Reference commutation check for a weight-shift map W (integer rows
    `wmap.blocks[key]` over `wmap.dens[degree]`): every W and action matrix
    is turned into Fraction entries and W[t1].A1 == A2.W[key] is compared
    for each source block `key` and loop element whose image t1 lies in
    the degree window.  Only the action matrices and W are read."""

    def shift(key):
        return (key[0], (key[1][0] + 1, key[1][1]))

    def w_block(key):
        if key in wmap.blocks:
            den = wmap.dens[key[0]]
            return [[Fraction(x, den) for x in row] for row in wmap.blocks[key]]
        return [[Fraction(0)] * source.dim(key) for _ in range(target.dim(shift(key)))]

    def action(module, le, key):
        _, rows, den = module.act_matrix(le, key)
        return [[Fraction(x, den) for x in row] for row in rows]

    for key in source.block_keys():
        n1 = source.dim(key)
        for le in loop_elements:
            t1 = source.target_key(le, key)
            if not 0 <= t1[0] <= max_degree:
                continue
            left = _fraction_matmul(w_block(t1), action(source, le, key), n1)
            right = _fraction_matmul(action(target, le, shift(key)), w_block(key), n1)
            if left != right:
                return False
    return True


# ---------------------------------------------------------------------------
# Weyl group of the finite weights
# ---------------------------------------------------------------------------


def weyl_orbit(weight):
    """The orbit of an eps-coordinate weight (w1, w2) under W(C2): the 8
    signed permutations of its coordinates."""
    w1, w2 = weight
    return {(s1 * a, s2 * b) for a, b in ((w1, w2), (w2, w1)) for s1 in (1, -1) for s2 in (1, -1)}


def weyl_violations(dims):
    """Pairs of blocks (degree, w), (degree, s.w) whose dimensions differ,
    for `dims` a {(degree, weight): dimension} map that omits zeros.  Each
    degree slice of an integrable highest weight module is a finite-
    dimensional module of the finite algebra, so its weight multiplicities
    are Weyl-invariant and the list is empty."""
    bad = []
    for (d, w), n in sorted(dims.items()):
        for image in sorted(weyl_orbit(w)):
            if dims.get((d, image), 0) != n:
                bad.append(((d, w), (d, image)))
    return bad


# ---------------------------------------------------------------------------
# rewriting oracle: normal ordering by randomized swap order
# ---------------------------------------------------------------------------


def straighten_random_order(word, structure, rng):
    """Normal-ordered form {(central_exponent, sorted_word): coeff} computed
    by repeatedly rewriting a randomly chosen adjacent inversion with
    x(i) y(j) = y(j) x(i) + [x, y](i+j) + i <x,y> delta c.  `structure` is a
    (bracket, form) pair of nested tuples.  Termination: each swap moves a
    strictly smaller multiset of word lengths/inversions downward."""
    bracket, form = structure
    work = {(0, tuple(word)): 1}
    done = {}
    while work:
        (cexp, w), coeff = work.popitem()
        inversions = [
            p for p in range(len(w) - 1) if w[p] < w[p + 1]
        ]
        if not inversions:
            key = (cexp, w)
            cc = done.get(key, 0) + coeff
            if cc:
                done[key] = cc
            else:
                done.pop(key, None)
            continue
        p = inversions[rng.randrange(len(inversions))]
        x, y = w[p], w[p + 1]
        swapped = w[:p] + (y, x) + w[p + 2 :]
        _accumulate(work, (cexp, swapped), coeff)
        i, b1 = x >> 4, x & 15
        j, b2 = y >> 4, y & 15
        for cf, k in bracket[b1][b2]:
            rep = w[:p] + ((((i + j) << 4) + k),) + w[p + 2 :]
            _accumulate(work, (cexp, rep), coeff * cf)
        if i + j == 0 and form[b1][b2]:
            rep = w[:p] + w[p + 2 :]
            _accumulate(work, (cexp + 1, rep), coeff * i * form[b1][b2])
    return done


def _accumulate(acc, key, coeff):
    cc = acc.get(key, 0) + coeff
    if cc:
        acc[key] = cc
    else:
        acc.pop(key, None)


# ---------------------------------------------------------------------------
# derived scalar oracles
# ---------------------------------------------------------------------------


def t_power_scalar(pi):
    """Expected conversion scalar for the derivation power on a colored
    partition: (-1) to the number of b-parts plus c-parts."""
    tb = sum(f for _, f in pi.b)
    tc = sum(f for _, f in pi.c)
    return (-1) ** (tb + tc)
