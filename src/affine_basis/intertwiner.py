"""Truncated modules, tensor models, and the color intertwiner.

A TruncatedModule is a finite exact model of an irreducible module up to a
degree window D: for every (degree, weight) block it stores the block basis
of the Verma engine (words of loop codes, each built from a basis word of the
block below it, with their Verma vectors; a true basis of the block), the
nonsingular Gram matrix of that basis, and exact action matrices of loop
elements between blocks, as integer rows over one positive denominator.
Coordinates are always recovered through the contravariant pairing and the
fraction-free inverse of the Gram matrix, so the model is faithful: no
quotient basis is ever guessed.

Models are kept per module, not per window.  get_truncated holds one store
for each (highest weight, cache directory): one Verma module, whose block
bases every window reads, one action-matrix memo and one Gram-inverse memo.
The model of a window is a view of that store with its own max_degree and
block list, built by block_support(window) over the bases already built,
so a smaller window requested after a larger one scans nothing.  A build
that scans a block ends by emptying the kernel's straightening memo
(VermaKernel.clear_act_memo): the action matrices read afterwards pair
through the pair memo, which stays, so the memo that dominates a build's
memory lives for one build only.  A view that scans nothing leaves the
memo as the action matrices have refilled it.  A block basis, and so
every action matrix and inverse, is the same at every window; each view
checks its own window before it reads the shared memo.
The projection chain takes w on each partition's own window from one
per-process memo keyed by the two models and the window (_solved_w);
verify_intertwiner solves for itself, since it certifies that solve.

TensorModule combines several truncated modules with the coproduct action
(sum over slots) and the product pairing.  Levels add; the tensor of level-1
modules is the exact arena for level-k arguments.

The intertwiner w maps the level-1 module with labels (0,1,0) to the one
with labels (0,0,1), shifts finite weights by eps1, annihilates the highest
weight vector, sends the weight-(0,1) top vector to the top of the target,
and commutes with the three color operators at every mode.  solve_w finds
all such maps inside the window degree by degree, by exact linear algebra,
and returns the deterministic particular solution, which records the
dimension of the solution space at each degree (None: no solution there).
Action matrices and intertwiner blocks are plain lists of integer rows of
their block's shape, over one denominator per action matrix and one per
degree of w; a zero map is a zero matrix, with no rows when the target
block is empty.  The tensor layer keeps integer coefficients and makes a
Fraction only where a denominator is not 1.

w_{k1, s} applies w to the last s tensor slots.  The projection-chain
verifier certifies, entirely inside tensor models, that the mode-0 block of
an admissible monomial is absorbed: w_{k1,c0} turns the color-monomial
vector with a mode-0 x21' block into a nonzero multiple of the plain color
monomial over the smaller highest weight, and w_{k1,s} with s > c0 kills it.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import itertools
import math
import time

from . import affine
from . import partitions as parts_mod
from .linalg import invert, solve_sparse
from .pbw import VermaModule, GEN_C2, HighestWeightSpec
from .verify import StepReport, _fmt, _proportionality, _sweep

EPS1 = (1, 0)


class TruncatedModule:
    """Exact finite model of the irreducible module of `spec` up to degree
    max_degree.  Blocks are discovered by the Verma engine's support
    closure, so the block list is provably complete within the window.

    `_shared`, another model of the same module and cache directory, makes
    this one a view of the same store (see the module docstring): it reuses
    that model's Verma module, action-matrix memo and Gram-inverse memo, so
    only the window and the block list are its own."""

    def __init__(self, spec, max_degree, cache_dir=None, _shared=None):
        self.spec = spec
        self.max_degree = max_degree
        if _shared is None:
            self.verma = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
            self._act = {}
            self._gram_inv = {}
        else:
            self.verma = _shared.verma
            self._act = _shared._act
            self._gram_inv = _shared._gram_inv
        self.basis = {}
        self.vectors = {}
        self.gram = {}
        built = len(self.verma._bases)
        for key, blk in self.verma.block_support(max_degree).items():
            self.basis[key] = blk.basis
            self.vectors[key] = blk.vectors
            self.gram[key] = blk.matrix
        if len(self.verma._bases) > built:
            self.verma.kernel.clear_act_memo()

    def dim(self, key):
        return len(self.basis.get(key, ()))

    def block_keys(self):
        return sorted(self.basis)

    def top_key(self):
        return (0, self.verma.lam_wt)

    def target_key(self, le, key):
        w = affine.weight_of(le)
        return (
            key[0] + affine.degree_of(le),
            (key[1][0] + w[0], key[1][1] + w[1]),
        )

    def gram_inverse(self, key):
        """(adj, det) of the block's Gram matrix from the fraction-free
        `invert`, computed once per block: adj / det is its inverse."""
        inv = self._gram_inv.get(key)
        if inv is None:
            inv = invert(self.gram[key])
            self._gram_inv[key] = inv
        return inv

    def coordinates(self, key, terms):
        """Integer numerators of the coordinates of a vector (dict of
        monomials, supported on block `key`) in the chosen basis, over the
        block's denominator gram_inverse(key)[1]: the pairings of the basis
        words with the vector, times the integer adjugate of the Gram
        matrix."""
        basis = self.basis.get(key, ())
        if not basis:
            # dimension 0: the vector must vanish in the quotient, which its
            # norm certifies (the form is positive definite on each block)
            if self.verma.pair(terms, terms):
                raise ArithmeticError(
                    "nonzero vector in a block reported empty: %r" % (key,)
                )
            return []
        p = [self.verma.kernel.pair_mono(m, terms) for m in basis]
        adj, _ = self.gram_inverse(key)
        return [sum(a * b for a, b in zip(row, p)) for row in adj]

    def act_matrix(self, le, key):
        """Matrix of x(le) from block `key` to its target block, in the
        chosen bases, exact: x(le) acts on the Verma vector of each basis
        word.  Returns (target_key, rows, den): dim(target) integer rows of
        dim(key) entries over the positive denominator den, reduced by their
        gcd, so an empty target gives no rows and a zero map has den 1.
        Every image goes through `coordinates`, which certifies that images
        landing in an empty block vanish.  The window is checked before the
        memo, which the views of one module share."""
        if not 0 <= key[0] + affine.degree_of(le) <= self.max_degree:
            raise ValueError(
                "action leaves the degree window: %r -> %r" % (key, self.target_key(le, key))
            )
        memo_key = (le, key)
        if memo_key in self._act:
            return self._act[memo_key]
        tgt = self.target_key(le, key)
        cols = [
            self.coordinates(tgt, self.verma.kernel.act_word((le,), vec))
            for vec in self.vectors.get(key, ())
        ]
        rows = [[col[r] for col in cols] for r in range(self.dim(tgt))]
        den = self.gram_inverse(tgt)[1] if rows and cols else 1
        g = math.gcd(den, *(x for row in rows for x in row))
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
        out = (tgt, rows, den)
        self._act[memo_key] = out
        return out


def _q(num, den):
    """num / den, as an int when den is 1."""
    return num if den == 1 else Fraction(num, den)


_TRUNC_CACHE = {}


def get_truncated(spec, max_degree, cache_dir=None):
    """The model of `spec` up to degree max_degree, one per window.
    _TRUNC_CACHE holds one entry per (spec, cache_dir), a {window: model}
    dict whose models are views of one store (see TruncatedModule): the
    first window builds the Verma module, and a later window scans only
    the blocks that no earlier one built, none if it is smaller."""
    views = _TRUNC_CACHE.setdefault((spec.as_tuple(), cache_dir), {})
    mod = views.get(max_degree)
    if mod is None:
        shared = next(iter(views.values()), None)
        mod = TruncatedModule(spec, max_degree, cache_dir=cache_dir, _shared=shared)
        views[max_degree] = mod
    return mod


class TensorModule:
    """Tensor product of truncated modules with the coproduct action and the
    product pairing.  States are tuples, one (degree, weight, index) triple
    per slot; vectors are dicts {state: coeff}."""

    def __init__(self, factors, max_degree):
        self.factors = list(factors)
        self.max_degree = max_degree

    def vacuum(self):
        state = tuple((0, f.verma.lam_wt, 0) for f in self.factors)
        for f in self.factors:
            if f.basis.get(f.top_key(), ()) != ((),):
                raise AssertionError("top block basis is not the vacuum monomial")
        return {state: 1}

    def act_le(self, le, vec):
        out = {}
        for state, coeff in vec.items():
            for slot, (d, wt, i) in enumerate(state):
                factor = self.factors[slot]
                tgt, rows, den = factor.act_matrix(le, (d, wt))
                for r, row in enumerate(rows):
                    if not row[i]:
                        continue
                    new_state = state[:slot] + ((tgt[0], tgt[1], r),) + state[slot + 1 :]
                    if sum(s[0] for s in new_state) > self.max_degree:
                        raise ValueError("tensor action leaves the degree window")
                    cc = out.get(new_state, 0) + coeff * _q(row[i], den)
                    if cc:
                        out[new_state] = cc
                    else:
                        out.pop(new_state, None)
        return out

    def act_word(self, word, vec=None):
        if vec is None:
            vec = self.vacuum()
        for le in reversed(tuple(word)):
            vec = self.act_le(le, vec)
        return vec

    def pair(self, u, v):
        """Product pairing.  Only states whose slots lie in the same blocks
        pair to nonzero, so v's states are grouped by their block tuple."""
        by_blocks = {}
        for sv, cv in v.items():
            by_blocks.setdefault(tuple(s[:2] for s in sv), []).append((sv, cv))
        total = 0
        for su, cu in u.items():
            for sv, cv in by_blocks.get(tuple(s[:2] for s in su), ()):
                prod = cu * cv
                for factor, (d, w, i), (_, _, j) in zip(self.factors, su, sv):
                    prod *= factor.gram[(d, w)][i][j]
                    if not prod:
                        break
                total += prod
        return total


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------


@dataclass
class IntertwinerMap:
    """Weight-shift map between two truncated modules, shifting finite
    weights by eps1: one integer dim(shift(key)) x dim(key) matrix per
    source block `key`, over the positive denominator dens[degree] of its
    degree; a block the map kills holds a zero matrix.  `freedom` records
    the solution-space dimension found at each degree (0 means the
    normalized map is unique there, None that the system had no solution;
    solve_w stops at that degree)."""

    source: TruncatedModule
    target: TruncatedModule
    blocks: dict
    dens: dict
    freedom: dict = field(default_factory=dict)

    @property
    def consistent(self):
        """Whether every degree's system had a solution."""
        return None not in self.freedom.values()

    def block(self, key):
        """(rows, den): the integer matrix on block `key` and the
        denominator of its degree; a zero matrix over 1 outside the solved
        blocks."""
        if key in self.blocks:
            return self.blocks[key], self.dens[key[0]]
        return _zeros(self.target.dim(_shift(key)), self.source.dim(key)), 1

    def apply_block(self, key, coeffs):
        """Target block and image coordinates of a source-block coordinate
        vector."""
        rows, den = self.block(key)
        return _shift(key), [_q(sum(a * x for a, x in zip(row, coeffs)), den) for row in rows]


def _shift(key):
    return (key[0], (key[1][0] + EPS1[0], key[1][1] + EPS1[1]))


def _zeros(n_rows, n_cols):
    return [[0] * n_cols for _ in range(n_rows)]


def _matmul(a, b, n_cols):
    """The product a.b of integer row lists, where b has n_cols columns
    (stated because b may have no rows)."""
    cols = [[row[c] for row in b] for c in range(n_cols)]
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def solve_w(source, target, max_degree):
    """Solve for all maps source -> target that shift finite weights by
    eps1, kill the source top vector, normalize the weight-(0,1) top basis
    vector to the target top, and commute with every color operator inside
    the window, which must lie in both models.  The equations are
    assembled as integer rows; solve_sparse returns each degree's solution
    as integer numerators over one common denominator, which are stored as
    they are.  Returns the IntertwinerMap; a degree without a solution ends
    the solve, with freedom None there (see IntertwinerMap.consistent)."""
    if not 0 <= max_degree <= min(source.max_degree, target.max_degree):
        raise ValueError("window %d is not inside both models" % max_degree)
    blocks = {}
    dens = {}
    freedom = {}
    for d in range(max_degree + 1):
        src_keys = [k for k in source.block_keys() if k[0] == d]
        var_index = {}
        nvars = 0
        for key in src_keys:
            n1 = source.dim(key)
            n2 = target.dim(_shift(key))
            if n1 and n2:
                var_index[key] = nvars
                nvars += n1 * n2
        rows = []
        rhs = []

        def add_equation(parts, const):
            """Add sum(coeff * W[key][r][c]) + const = 0 as an integer row
            over the current unknowns.  Blocks of lower degrees are solved,
            integer rows over their degree's denominator, so the equation is
            scaled by the lcm of the denominators it references."""
            known_dens = []
            for key, _, _, _ in parts:
                if key in var_index:
                    continue
                if key not in blocks:
                    raise AssertionError(
                        "equation references an unsolved block %r at stage %d" % (key, d)
                    )
                known_dens.append(dens[key[0]])
            scale = math.lcm(*known_dens)
            row = {}
            known = const * scale
            for key, r, c, coeff in parts:
                if key not in var_index:
                    known += coeff * blocks[key][r][c] * (scale // dens[key[0]])
                    continue
                col = var_index[key] + r * source.dim(key) + c
                cc = row.get(col, 0) + coeff * scale
                if cc:
                    row[col] = cc
                else:
                    row.pop(col, None)
            if row or known:
                rows.append(row)
                rhs.append(-known)

        # normalization at degree 0: the weight-(0,1) basis vector maps to
        # the target top vector.
        if d == 0:
            v2_key = (0, (0, 1))
            if v2_key not in var_index:
                raise AssertionError("normalization block missing from the window")
            add_equation([(v2_key, 0, 0, 1)], -1)

        # Commutation W.A1 = A2.W with every color operator, staged so that
        # each equation involves unknowns of degree d only:
        #   * sources at degree d with mode >= 0 (the image degree d-n is
        #     already solved, or is degree d itself at mode 0);
        #   * sources at lower degrees d-n with lowering mode -n (the image
        #     lands at degree d).
        for base in affine.COLOR_BASES:
            for key in src_keys:
                for n in range(0, d + 1):
                    for parts in _commutation_parts(source, target, key, affine.encode(n, base)):
                        add_equation(parts, 0)
            for n in range(1, d + 1):
                le = affine.encode(-n, base)
                for key in [k for k in source.block_keys() if k[0] == d - n]:
                    for parts in _commutation_parts(source, target, key, le):
                        add_equation(parts, 0)

        nums, den, n_free = solve_sparse(rows, rhs, nvars)
        if nums is None:
            freedom[d] = None
            break
        freedom[d] = n_free
        dens[d] = den
        for key in src_keys:
            n1 = source.dim(key)
            n2 = target.dim(_shift(key))
            if key in var_index:
                start = var_index[key]
                blocks[key] = [nums[start + r * n1 : start + (r + 1) * n1] for r in range(n2)]
            else:  # no unknowns: the zero map
                blocks[key] = _zeros(n2, n1)
    return IntertwinerMap(source=source, target=target, blocks=blocks, dens=dens, freedom=freedom)


_SOLVED_W = {}


def _solved_w(source, target, window):
    """solve_w(source, target, window), solved once per process for each
    pair of models and window; the projection chain reads w here.  The
    models are views that never change once built, so the key pins the
    inputs.  solve_w at degree d reads only blocks and action matrices of
    degrees <= d, so w below a degree does not depend on the window: each
    window's w agrees with every deeper one on the degrees they share."""
    key = (source, target, window)
    if key not in _SOLVED_W:
        _SOLVED_W[key] = solve_w(source, target, window)
    return _SOLVED_W[key]


def _commutation_parts(source, target, key, le):
    """Equations W_{T1} A1 - A2 W_{S} = 0 for one source block and one loop
    element, multiplied by the denominators d1, d2 of A1 = a1/d1 and
    A2 = a2/d2, as lists of (block, r, c, integer coefficient) parts; the
    image lies in solve_w's window."""
    t1 = source.target_key(le, key)
    s2 = _shift(key)
    t2 = _shift(t1)
    _, a1, d1 = source.act_matrix(le, key)
    _, a2, d2 = target.act_matrix(le, s2)
    n1s = source.dim(key)
    n1t = source.dim(t1)
    n2s = target.dim(s2)
    n2t = target.dim(t2)
    eqs = []
    for r in range(n2t):
        for c in range(n1s):
            parts = []
            # d2 (W_{T1} a1)[r][c] = d2 sum_m W_{T1}[r][m] * a1[m][c]
            for m in range(n1t):
                if a1[m][c]:
                    parts.append((t1, r, m, a1[m][c] * d2))
            # -d1 (a2 W_S)[r][c] = -d1 sum_m a2[r][m] * W_S[m][c]
            for m in range(n2s):
                if a2[r][m]:
                    parts.append((key, m, c, -a2[r][m] * d1))
            if parts:
                eqs.append(parts)
    return eqs


def verify_intertwiner(max_degree, cache_dir=None):
    """Solve for the intertwiner inside the window and certify: existence,
    uniqueness report per degree, annihilation of the source top vector, and
    (post hoc, independently of the solver) commutation with every color
    operator on every basis vector."""
    t0 = time.perf_counter()
    source = get_truncated(HighestWeightSpec(0, 1, 0), max_degree, cache_dir)
    target = get_truncated(HighestWeightSpec(0, 0, 1), max_degree, cache_dir)
    wmap = solve_w(source, target, max_degree)
    ok = wmap.consistent
    v1_killed = None
    commutes = None
    if ok:
        _, img = wmap.apply_block(source.top_key(), [1])
        v1_killed = not any(img)
        commutes = _check_commutation(source, target, wmap, max_degree)
        ok = v1_killed and commutes
    return StepReport(
        step="intertwiner",
        inputs={"max_degree": max_degree},
        ok=bool(ok),
        witness={
            "freedom": {str(d): f for d, f in wmap.freedom.items()},
            "top_killed": v1_killed,
            "commutes": commutes,
        },
        seconds=time.perf_counter() - t0,
    )


def _check_commutation(source, target, wmap, max_degree):
    """W[t1].A1 == A2.W[key] for every source block `key` and every color
    loop element x with x(key) = t1 inside the window, as integer products
    cross-multiplied by the denominators: with A1 = a1/d1, A2 = a2/d2,
    W[t1] over e1 and W[key] over e, it checks
    (W[t1].a1) * d2 * e == (a2.W[key]) * e1 * d1.  It reads only the solved
    blocks and the action matrices, never the solver's equations."""
    for key in source.block_keys():
        n1 = source.dim(key)
        w, e = wmap.block(key)
        for base in affine.COLOR_BASES:
            for n in range(-max_degree, max_degree + 1):
                le = affine.encode(-n, base)
                t1 = source.target_key(le, key)
                if t1[0] < 0 or t1[0] > max_degree:
                    continue
                _, a1, d1 = source.act_matrix(le, key)
                _, a2, d2 = target.act_matrix(le, _shift(key))
                w1, e1 = wmap.block(t1)
                left = _matmul(w1, a1, n1)
                right = _matmul(a2, w, n1)
                if _scaled(left, d2 * e) != _scaled(right, e1 * d1):
                    return False
    return True


def _scaled(rows, s):
    return [[x * s for x in row] for row in rows]


# ---------------------------------------------------------------------------
# tensor-slot operators and the projection chain
# ---------------------------------------------------------------------------


def build_w_ks(wmap, n_slots, s):
    """Operator applying the intertwiner to the last s of n_slots tensor
    slots.  Input states must carry source-module triples in those slots;
    output states carry target-module triples there."""

    def apply(vec):
        out = {}
        for state, coeff in vec.items():
            expansions = [[(state[i], 1)] for i in range(n_slots)]
            den = 1
            for slot in range(n_slots - s, n_slots):
                d, wt, i = state[slot]
                tgt = _shift((d, wt))
                rows, e = wmap.block((d, wt))
                den *= e
                expansions[slot] = [
                    ((tgt[0], tgt[1], r), row[i]) for r, row in enumerate(rows) if row[i]
                ]
            for combo in itertools.product(*expansions):
                new_state = tuple(t for t, _ in combo)
                val = coeff
                for _, f in combo:
                    val *= f
                if val:
                    cc = out.get(new_state, 0) + _q(val, den)
                    if cc:
                        out[new_state] = cc
                    else:
                        out.pop(new_state, None)
        return out

    return apply


def verify_projection_chain(kind, pi, cache_dir=None):
    """Certify the absorption of the mode-0 block of an admissible partition
    inside tensor models of level-1 truncated modules:

      (i)  w_{k1,c0} sends the color-monomial vector of pi (mode-0 block
           realized by x21'(0) factors) to a nonzero multiple of the color
           monomial of pi without its mode-0 block, over the smaller highest
           weight (k0, k1-c0, c0);
      (ii) w_{k1,s} kills that vector for every s with c0 < s <= k1.

    The models and w are those of the partition's own window, max(degree, 1);
    w comes from _solved_w, so partitions of one depth share one solve."""
    t0 = time.perf_counter()
    k0, k1 = kind.k0, kind.k1
    pi1, c0 = pi.split_c0()
    depth = max(pi.degree, 1)
    m0 = get_truncated(HighestWeightSpec(1, 0, 0), depth, cache_dir)
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), depth, cache_dir)
    m2 = get_truncated(HighestWeightSpec(0, 0, 1), depth, cache_dir)
    wmap = _solved_w(m1, m2, depth)
    if not wmap.consistent:
        return StepReport(
            step="projection_chain",
            inputs={"partition": pi.to_dict(), "labels": [k0, k1]},
            ok=False,
            witness={"error": "no intertwiner in window"},
            seconds=time.perf_counter() - t0,
        )
    src = TensorModule([m0] * k0 + [m1] * k1, depth)
    word = parts_mod._literal_word(pi1, parts_mod.COLOR_BASES_MAP) + (
        affine.encode(0, 3),
    ) * c0
    u = src.act_word(word)
    n_slots = k0 + k1

    # clause (i): absorb the mode-0 block
    w_c0 = build_w_ks(wmap, n_slots, c0)
    lhs = w_c0(u)
    tgt = TensorModule([m0] * k0 + [m1] * (k1 - c0) + [m2] * c0, depth)
    rhs = tgt.act_word(parts_mod._literal_word(pi1, parts_mod.COLOR_BASES_MAP))
    mu = _proportionality(lhs, rhs)
    ok = mu is not None and mu != 0

    # clause (ii): one more application kills
    killed = []
    for s in range(c0 + 1, k1 + 1):
        w_s = build_w_ks(wmap, n_slots, s)
        killed.append(not w_s(u))
    if killed and not all(killed):
        ok = False

    return StepReport(
        step="projection_chain",
        inputs={"partition": pi.to_dict(), "labels": [k0, k1], "c0": c0},
        ok=bool(ok),
        witness={
            "mu": _fmt(mu) if mu is not None else None,
            "higher_killed": killed,
            "freedom": {str(d): f for d, f in wmap.freedom.items()},
        },
        seconds=time.perf_counter() - t0,
    )


def sweep_projection_chain(kind, max_degree, cache_dir=None):
    """verify_projection_chain over every admissible partition up to
    max_degree, aggregated into one report (witness lists each mu).  Each
    partition reads w from _solved_w on its own window, so a sweep solves
    once per window it meets, and later sweeps reuse those solves."""
    return _sweep(
        "projection_chain_sweep",
        kind,
        max_degree,
        lambda pi: verify_projection_chain(kind, pi, cache_dir),
        "mu",
    )


def verify_cross_model(kind, max_degree, cache_dir=None):
    """Certify that the Verma-engine pairing and the tensor-model pairing
    agree on every pair of admissible long-root monomial vectors in the same
    block (two independent computations of the same contravariant form).
    Each word's vector is computed once in each model."""
    t0 = time.perf_counter()
    k0, k1 = kind.k0, kind.k1
    verma = VermaModule(kind.spec(), gens=GEN_C2)
    m0 = get_truncated(HighestWeightSpec(1, 0, 0), max_degree, cache_dir)
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), max_degree, cache_dir)
    tensor = TensorModule([m0] * k0 + [m1] * k1, max_degree)
    pis = parts_mod.enumerate_admissible(kind, max_degree)
    words = [kind.monomial_word(pi) for pi in pis]
    blocks = [(affine.word_degree(word), affine.word_weight(word)) for word in words]
    verma_vecs = [verma.act_word(word) for word in words]
    tensor_vecs = [tensor.act_word(word) for word in words]
    checked = 0
    ok = True
    mismatches = []
    for i in range(len(pis)):
        for j in range(i, len(pis)):
            if blocks[i] != blocks[j]:
                continue
            a = verma.pair(verma_vecs[i], verma_vecs[j])
            b = tensor.pair(tensor_vecs[i], tensor_vecs[j])
            checked += 1
            if a != b:
                ok = False
                mismatches.append(
                    {
                        "left": pis[i].tag(),
                        "right": pis[j].tag(),
                        "verma": _fmt(a),
                        "tensor": _fmt(b),
                    }
                )
    return StepReport(
        step="cross_model",
        inputs={
            "kind": kind.name,
            "labels": list(kind.as_tuple()),
            "max_degree": max_degree,
        },
        ok=ok,
        witness={"pairs_checked": checked, "mismatches": mismatches},
        seconds=time.perf_counter() - t0,
    )
