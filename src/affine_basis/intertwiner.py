"""Truncated modules, tensor models, and the color intertwiner.

A TruncatedModule is a finite exact model of an irreducible module up to a
degree window D: for every (degree, weight) block it stores the block basis
of the Verma engine (words of loop codes, each built from a basis word of the
block below it, with their Verma vectors; a true basis of the block), the
nonsingular Gram matrix of that basis, and exact action matrices of loop
elements between blocks, as integer rows over one positive denominator.

Action matrices come from the closure words.  Every basis word is a
storable step (y,) + b on a basis word b of a lower block, so x applied to
it expands by the enveloping-algebra identity
x.y.b = y.(x.b) + [x, y].b + (central term) into images of shorter words,
down to closure candidates of the block scans (TruncatedModule._image): a
kept candidate is a unit column, and a candidate the scan rejected gets its
coordinates once, by back-substitution of the Bareiss row its keep test
computed (pbw.BlockBasis.rejected) on the factor the block keeps
(pbw.BlockBasis.factor), with no second straightening or pairing.  A block
loaded from the disk cache was never scanned and has no such rows: its
rejected candidates are paired and solved on the factor of the cache entry
check (coordinates).  Blocks outside the support are zero by the closure
theorem of pbw, and an image in an empty block of the window is certified
zero by its norm.  No quotient basis is ever guessed.

Models are kept per module, not per window.  get_truncated holds one
TruncatedModule for each (highest weight, cache directory), closed to the
deepest window asked for so far (TruncatedModule.close), as the Verma
module under it is closed by block_support: a shallower request scans
nothing, and a deeper one scans only the new degrees.  Windows stay
arguments: solve_w, _check_commutation, TensorModule and the projection
chain's depth each take their own.

Solved maps are kept the same way (_solved_w): the source model holds one
certified intertwiner per target model, solved and checked once on the
deepest window asked for so far, and a deeper request solves and checks
again and replaces it.  A shallower window W reads the map restricted to
the degrees <= W (IntertwinerMap.restrict), which is the map solve_w finds
on W, because solve_w at degree d reads only blocks and action matrices of
degrees <= d.  A certificate that passed on the deeper window covers W,
whose equations are among its own; one that failed is checked again on
the restricted map, with no new solve.  verify_intertwiner and the
projection chain both read this store, so the chain applies only maps
certified in the same process, and the models and their maps are dropped
together.  A model closed deeper gives every shallower window the answers
a model built for that window gives, by these invariants:

  * every nonzero block up to max_degree is in `blocks`;
  * act_matrix refuses a target above max_degree before it reads its memo;
  * the _image recursion never leaves the top call's target degree: a
    basis word's first letter is storable, so its degree is >= 0.  So the
    images and action matrices memoised at a lower closed degree stay
    valid after a close;
  * a close that scans a block, as the first build does, and each action
    matrix act_matrix computes end by emptying the kernel's straightening
    and pair memos (VermaKernel.clear_memos): between builds the kernel
    straightens and pairs only the images into empty blocks and the
    rejected candidates of blocks loaded from the disk cache, so the memos
    that dominate a build's memory live for one close or one action matrix.
    Emptying them changes no result; a close that scans nothing and a
    memoised action matrix leave them as they are.

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
A commutation equation W[x(S)] A1 = A2 W[S] belongs to the degree of the
larger of its two blocks, so at most one of them is known from a lower
degree: raising modes give A2 W_S = R, lowering modes W_S A1 = C, and
only mode 0 couples two unknown blocks.  So each block is solved alone,
by one elimination of its stacked raising equations and one of its
stacked lowering ones, as W_S = X_S + N2 Y M1 with a few free parameters
Y (blocksolve.solve_two_sided); only the mode-0 equations and the
normalization, reduced to rows in those parameters, go to solve_sparse
(blocksolve.solve_linked), which reads its solution off the same sparse
Gauss-Jordan, linalg.echelon, that eliminates the blocks.  No row is
written per matrix entry.  An equation into an empty target block
shift(x(S)) has no rows and holds for every W, so solve_w and the
commutation check skip it before computing either action matrix, which
weakens neither; one whose source block x(S) alone is empty still reads
A2 W[S] = 0.
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
import math
import time

from . import affine
from . import partitions as parts_mod
from .blocksolve import matmul as _matmul, solve_linked, solve_two_sided
from .linalg import back_substitute, gram_solve
from .linalg import invert, solve_sparse  # noqa: F401 - perfbench wraps invert and solve_sparse here
from .pbw import VermaModule, GEN_C2, HighestWeightSpec, add_into
from .verify import StepReport, _fmt, _proportionality, _sweep

EPS1 = (1, 0)


class TruncatedModule:
    """Exact finite model of the irreducible module of `spec` up to degree
    max_degree, the deepest window it was closed to.  Blocks are discovered
    by the Verma engine's support closure, so the block list is provably
    complete within the window, and block_support checks their dimensions
    against the Weyl group.  `blocks` maps each nonzero block to the
    pbw.BlockBasis that block_support returns: its words, vectors, Gram
    matrix and Bareiss factor.  The model grows by close, and every memo
    stays valid as it grows (see the module docstring)."""

    def __init__(self, spec, max_degree, cache_dir=None):
        self.verma = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
        self.max_degree = -1  # close sets it and `blocks`
        self._act = {}
        self._images = {}
        self._place = {}  # basis word: (its block, its index there)
        self._solved = {}  # target model: (window, certified intertwiner), see _solved_w
        self.close(max_degree)

    def close(self, max_degree):
        """Extend the model to degree max_degree; a window it already holds
        scans nothing, and a close that scans a block empties the kernel's
        memos (see the module docstring).  A negative window
        raises ValueError, here and not only on a new model."""
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative, got %d" % max_degree)
        if max_degree <= self.max_degree:
            return
        built = len(self.verma._bases)
        self.blocks = self.verma.block_support(max_degree)
        self.max_degree = max_degree
        for key, blk in self.blocks.items():
            for i, word in enumerate(blk.basis):
                self._place[word] = (key, i)
        if len(self.verma._bases) > built:
            self.verma.kernel.clear_memos()

    def dim(self, key):
        return self.blocks[key].rank if key in self.blocks else 0

    def block_keys(self):
        return sorted(self.blocks)

    def top_key(self):
        return (0, self.verma.lam_wt)

    def target_key(self, le, key):
        w = affine.weight_of(le)
        return (
            key[0] + affine.degree_of(le),
            (key[1][0] + w[0], key[1][1] + w[1]),
        )

    def coordinates(self, key, terms):
        """Integer numerators of the coordinates of a vector (dict of
        monomials) of block `key` in the chosen basis, over the block's
        Gram determinant: the pairings of the basis words with the vector,
        solved on the Gram factor (linalg.gram_solve).  The zero vector has
        zero coordinates, with no pairing; a vector in an empty block must
        be zero in the quotient, which its norm decides.  Raises ValueError
        if a monomial lies outside block `key`, where every pairing would
        vanish.  Action matrices read it only for images into an empty block
        and for the rejected closure candidates of a block loaded from the
        disk cache, which has no scan rows (pbw.BlockBasis.rejected)."""
        blk = self.blocks.get(key)
        if not terms:
            return [0] * self.dim(key)
        for m in terms:
            if (affine.word_degree(m), self.verma.abs_weight(m)) != key:
                raise ValueError("monomial %r does not lie in block %r" % (m, key))
        if blk is None:
            # dimension 0: the vector must vanish in the quotient
            if not self.verma.zero_in_quotient(terms):
                raise ArithmeticError(
                    "nonzero vector in a block reported empty: %r" % (key,)
                )
            return []
        p = [self.verma.kernel.pair_mono(m, terms) for m in blk.basis]
        return gram_solve(*blk.factor, p)

    def act_matrix(self, le, key):
        """Matrix of x(le) from block `key` to its target block, in the
        chosen bases, exact.  Returns (target_key, rows, den): dim(target)
        integer rows of dim(key) entries over the positive denominator den,
        reduced by their gcd, so an empty target gives no rows and a zero
        map has den 1.  Column b is _image(le, b).  An image in an empty
        block of the window goes through `coordinates` instead, which
        certifies by its norm that it vanishes.  The window is checked
        before the memo, which holds the matrices of every window the model
        was closed to; a matrix computed here empties the kernel's memos
        (see the module docstring)."""
        if not 0 <= key[0] + affine.degree_of(le) <= self.max_degree:
            raise ValueError(
                "action leaves the degree window: %r -> %r" % (key, self.target_key(le, key))
            )
        memo_key = (le, key)
        if memo_key in self._act:
            return self._act[memo_key]
        tgt = self.target_key(le, key)
        src = self.blocks.get(key)
        words, vectors = (src.basis, src.vectors) if src else ((), ())
        rows = []
        den = 1
        if tgt in self.blocks:
            cols = [self._image(le, b) for b in words]
            den = math.lcm(
                *(c.denominator for col in cols for c in col.values() if type(c) is Fraction)
            )
            rows = [[0] * len(words) for _ in range(self.dim(tgt))]
            for c, col in enumerate(cols):
                for word, v in col.items():
                    rows[self._place[word][1]][c] = int(v * den)
        else:
            for vec in vectors:
                self.coordinates(tgt, self.verma.kernel.act_word((le,), vec))
        out = (tgt, rows, den)
        self._act[memo_key] = out
        self.verma.kernel.clear_memos()
        return out

    def _image(self, x, word):
        """x . word in the irreducible quotient, for a loop code x and a
        basis word of the model, as {basis word of the target block: int or
        Fraction coefficient}; memoised per model.

        A block outside the support is zero (the closure argument of the
        pbw docstring).  A storable x with word empty or x <= word[0] gives
        the closure candidate (x,) + word: a unit column if the scan kept
        it, else its coordinates, once: the scan's row u of it
        back-substituted on the first m = len(u) rows of the block's factor,
        over D_m (the words kept after it get 0), or on a block loaded from
        the disk cache, which has no rows, `coordinates` over the block's
        determinant.  On the top word the Cartan elements act by the highest
        weight and every other non-storable code kills.  Otherwise, with word = (y,) + rest, the
        enveloping-algebra identity
            x.y.rest = y.(x.rest) + [x, y].rest + i <x, y> k rest,
        the last term only when the modes i of x and j of y sum to 0, k the
        level (Kac, Infinite-Dimensional Lie Algebras, ch. 7 and 9), expands
        it into images of shorter words and of y on the basis words of the
        block of x.rest.  That recursion ends: a storable x > y calls only
        codes below x or shorter words (the pbw docstring's increasing-word
        argument), and a non-storable x calls itself and other non-storable
        codes only on shorter words."""
        memo_key = (x, word)
        out = self._images.get(memo_key)
        if out is not None:
            return out
        key, i = self._place[word]
        tgt = self.target_key(x, key)
        kernel = self.verma.kernel
        if tgt not in self.blocks:
            out = {}
        elif affine.storable(x) and (not word or x <= word[0]):
            cand = (x,) + word
            if cand in self._place:
                out = {cand: 1}
            else:
                blk = self.blocks[tgt]
                if blk.rejected is None:  # loaded from the disk cache: no scan rows
                    vec = kernel.act_word((x,), self.blocks[key].vectors[i])
                    coords, den = self.coordinates(tgt, vec), blk.factor[1][-1]
                else:
                    u = blk.rejected[cand]
                    coords, den = back_substitute(*blk.factor, u), blk.factor[1][len(u)]
                out = {b: _q(n, den) for b, n in zip(blk.basis, coords) if n}
        elif not word:
            lam = kernel.lam.get(x, 0)  # x is a mode-0 code here
            out = {(): lam} if lam else {}
        else:
            y, rest = word[0], word[1:]
            out = {}
            for m, c in self._image(x, rest).items():
                add_into(out, self._image(y, m), c)
            mode = (x >> 4) + (y >> 4)
            for cf, k in kernel.bracket[x & 15][y & 15]:
                add_into(out, self._image((mode << 4) + k, rest), cf)
            add_into(out, {rest: 1}, _central(kernel.form, kernel.level, x, y))
        self._images[memo_key] = out
        return out


def _central(form, level, x, y):
    """The scalar i <x, y> k by which the central term of [x(i), y(j)]
    acts at level k: nonzero only when i + j == 0."""
    i = x >> 4
    return i * form[x & 15][y & 15] * level if i + (y >> 4) == 0 else 0


def _q(num, den):
    """num / den: an int when it is integral, else a Fraction."""
    if den == 1:
        return num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def _slot_map(vec, slot, matrix, out):
    """Add to `out` the image of the tensor vector `vec` under a block map
    acting on one slot: matrix(key) is (target key, integer rows, den) for
    the slot's block `key`, and a slot triple (degree, weight, i) is
    expanded through column i of the rows over den.  Returns `out`."""
    for state, coeff in vec.items():
        d, wt, i = state[slot]
        tgt, rows, den = matrix((d, wt))
        for r, row in enumerate(rows):
            if row[i]:
                new_state = state[:slot] + ((tgt[0], tgt[1], r),) + state[slot + 1 :]
                cc = out.get(new_state, 0) + coeff * _q(row[i], den)
                if cc:
                    out[new_state] = cc
                else:
                    out.pop(new_state, None)
    return out


_TRUNC_CACHE = {}


def get_truncated(spec, max_degree, cache_dir=None):
    """The model of `spec`, holding at least degree max_degree.
    _TRUNC_CACHE holds one TruncatedModule per (spec, cache_dir): the first
    call builds it, and a later one closes it to max_degree, which scans
    only the degrees no earlier call reached, none if it is smaller."""
    key = (spec.as_tuple(), cache_dir)
    mod = _TRUNC_CACHE.get(key)
    if mod is None:
        mod = _TRUNC_CACHE[key] = TruncatedModule(spec, max_degree, cache_dir)
    mod.close(max_degree)  # nothing to do on a model just built
    return mod


class TensorModule:
    """Tensor product of truncated modules with the coproduct action and the
    product pairing.  States are tuples, one (degree, weight, index) triple
    per slot; vectors are dicts {state: coeff}."""

    def __init__(self, factors, max_degree):
        self.factors = list(factors)
        self.max_degree = max_degree

    def vacuum(self):
        return {tuple((0, f.verma.lam_wt, 0) for f in self.factors): 1}

    def act_le(self, le, vec):
        """x(le) by the coproduct: its action matrices summed over the
        slots.  A result state beyond the degree window raises ValueError."""
        out = {}
        for slot, factor in enumerate(self.factors):
            _slot_map(vec, slot, lambda key: factor.act_matrix(le, key), out)
        if any(sum(s[0] for s in state) > self.max_degree for state in out):
            raise ValueError("tensor action leaves the degree window")
        return out

    def act_word(self, word):
        """The word's loop codes applied to the vacuum, rightmost first."""
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
                    prod *= factor.blocks[(d, w)].matrix[i][j]
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

    def restrict(self, window):
        """The map on the degrees <= window: the map solve_w finds on that
        window, since solve_w at degree d reads only degrees <= d."""
        blocks = {key: rows for key, rows in self.blocks.items() if key[0] <= window}
        dens, freedom = ({d: x for d, x in m.items() if d <= window} for m in (self.dens, self.freedom))
        return IntertwinerMap(self.source, self.target, blocks, dens, freedom)


def _shift(key):
    return (key[0], (key[1][0] + EPS1[0], key[1][1] + EPS1[1]))


def _zeros(n_rows, n_cols):
    return [[0] * n_cols for _ in range(n_rows)]


def solve_w(source, target, max_degree):
    """Solve for all maps source -> target that shift finite weights by
    eps1, kill the source top vector, normalize the weight-(0,1) top basis
    vector to the target top, and commute with every color operator inside
    the window, which must lie in both models.  The unknowns of degree d are
    the entries of the blocks W[key] of degree d.  Each commutation
    equation d2 W[t1] a1 = d1 a2 W[key] (A1 = a1/d1 on the source, A2 =
    a2/d2 on the target) belongs to the degree of the larger of its two
    blocks, so it reads blocks of lower degrees only as solved values: a
    raising mode (n > 0) constrains W[key] by A2 W_S = R, a lowering mode
    W[t1] by W_S A1 = C, and mode 0 couples two unknown blocks.  An
    equation into an empty target block shift(t1) has no rows and
    constrains nothing, so it is skipped before its action matrices.

    Each degree is solved block by block: the raising equations of a
    block S, stacked, and its lowering ones, transposed and stacked
    (_stacked_rows), are each eliminated once (blocksolve.solve_two_sided),
    which gives W_S = X_S + N2 Y M1 with a few free parameters Y.
    blocksolve.solve_linked substitutes these into the mode-0 equations
    and the normalization: an equation whose blocks hold no parameter is
    checked as an integer matrix, and only rows in the parameters go to
    solve_sparse, free parameters set to zero.  freedom[d] is the number
    of parameters minus the rank of those rows.  Each degree's blocks are
    stored as integer numerators over one reduced common denominator.
    Returns the IntertwinerMap; a degree without a solution ends the
    solve, with freedom None there (see IntertwinerMap.consistent).  Its
    one caller is the store of certified maps (_solved_w), which
    verify_intertwiner and the projection chain read."""
    if not 0 <= max_degree <= min(source.max_degree, target.max_degree):
        raise ValueError("window %d is not inside both models" % max_degree)
    by_degree = {}
    for key in source.block_keys():
        by_degree.setdefault(key[0], []).append(key)
    blocks = {}
    dens = {}
    freedom = {}
    for d in range(max_degree + 1):
        keys = by_degree.get(d, ())
        # every commutation equation whose larger degree is d: modes n >= 0
        # on the blocks of degree d (the image lies at degree d - n), then
        # the lowering modes -n on the blocks of degree d - n (the image
        # lies at degree d)
        walk = [(key, n) for key in keys for n in range(d + 1)]
        walk += [(key, -n) for n in range(1, d + 1) for key in by_degree.get(d - n, ())]
        stacks = {key: ([], []) for key in keys}  # block: (its raising, its lowering equations)
        links = []  # mode 0: d2 W[t1] a1 = d1 a2 W[key]
        for base in affine.COLOR_BASES:
            for key, n in walk:
                le = affine.encode(n, base)
                t1 = source.target_key(le, key)
                if not target.dim(_shift(t1)):
                    continue  # maps into the zero space: no rows
                _, a1, d1 = source.act_matrix(le, key)
                _, a2, d2 = target.act_matrix(le, _shift(key))
                if n == 0:
                    links.append((t1, a1, d1, key, a2, d2, source.dim(key)))
                    stacks.setdefault(t1, ([], []))
                    continue
                # the known block, solved at the lower degree (zero where
                # the source block is empty)
                lower = t1 if n > 0 else key
                if source.dim(lower) and lower not in blocks:
                    raise AssertionError("equation references an unsolved block %r" % (lower,))
                w = blocks.get(lower) or _zeros(target.dim(_shift(lower)), source.dim(lower))
                eq = (source.dim(key), a1, d1, a2, d2, w, dens[lower[0]])
                stacks.setdefault(key if n > 0 else t1, ([], []))[n < 0].append(eq)
        fixed = []
        if d == 0:
            # the weight-(0,1) basis vector maps to the target top vector
            key = (0, (0, 1))
            if not (source.dim(key) and target.dim(_shift(key))):
                raise AssertionError("normalization block missing from the window")
            fixed.append((key, 0, 0, 1))
        solutions = {
            key: solve_two_sided(
                target.dim(_shift(key)),
                source.dim(key),
                _stacked_rows(raising, True),
                _stacked_rows(lowering, False),
            )
            for key, (raising, lowering) in stacks.items()
        }
        solved = None if None in solutions.values() else solve_linked(solutions, links, fixed)
        if solved is None:
            freedom[d] = None
            break
        ws, dens[d], freedom[d] = solved
        blocks.update((key, ws[key]) for key in keys)
    return IntertwinerMap(source=source, target=target, blocks=blocks, dens=dens, freedom=freedom)


def _stacked_rows(equations, raising):
    """The integer rows, one at a time, of one block's raising equations
    A2 W_S = R, by rows of W_S, or of its lowering equations W_S A1 = C,
    transposed, by columns of W_S: [coefficients | right-hand sides], as
    dicts {column: int} of the nonzero entries.  An equation is (n1, a1,
    d1, a2, d2, w, e): the action matrices A1 = a1/d1 on a source block
    with n1 basis vectors and A2 = a2/d2 on its target block, and the known
    block W[lower] = w / e."""
    for n1, a1, d1, a2, d2, w, e in equations:
        if raising:  # (d1 e) a2 W[key] = d2 W[t1] a1
            pairs = zip(a2, _matmul(w, a1, n1))
            a, b = d1 * e, d2
        else:  # (d2 e) W[t1] a1 = d1 a2 W[key]
            known = _matmul(a2, w, n1)
            pairs = (([row[c] for row in a1], [row[c] for row in known]) for c in range(n1))
            a, b = d2 * e, d1
        for coeffs, rhs in pairs:
            row = {c: x * a for c, x in enumerate(coeffs) if x}
            for c, y in enumerate(rhs, len(coeffs)):
                if y:
                    row[c] = y * b
            yield row


def _solved_w(source, target, window):
    """(w, certificate) on the window: w is the map solve_w(source, target,
    window) finds, and the certificate is _certify's (top killed, commutes,
    failure).
    The source model holds one record per target model: the deepest window
    asked for so far, with its map and certificate, each computed once; a
    deeper window solves and certifies again and replaces the record.  A
    shallower window reads the restricted map (IntertwinerMap.restrict) and
    the record's certificate if it passed, since the shallower equations
    are among those it checked; a failed one is checked again on the
    restricted map, which may pass there, with no new solve."""
    held = source._solved.get(target)
    if held is None or held[0] < window:
        wmap = solve_w(source, target, window)
        held = source._solved[target] = (window, wmap, _certify(wmap, window))
    depth, wmap, cert = held
    if depth > window:
        wmap = wmap.restrict(window)
        cert = cert if all(cert[:2]) else _certify(wmap, window)
    return wmap, cert


def _certify(wmap, window):
    """(top killed, commutes, failure) for a map solve_w found on the
    window: whether it kills the source top vector, and _check_commutation,
    which reads the map and the action matrices only, as a bool and its
    failure; (None, None, None) when the solve stopped without a map."""
    if not wmap.consistent:
        return None, None, None
    top, _ = wmap.block(wmap.source.top_key())
    failure = _check_commutation(wmap.source, wmap.target, wmap, window)
    return not any(map(any, top)), failure is None, failure


def _certified_w(window, cache_dir):
    """_solved_w from the (0,1,0) model to the (0,0,1) model of the store,
    each closed to at least the window."""
    source = get_truncated(HighestWeightSpec(0, 1, 0), window, cache_dir)
    target = get_truncated(HighestWeightSpec(0, 0, 1), window, cache_dir)
    return _solved_w(source, target, window)


def _witness(wmap, cert):
    """verify_intertwiner's witness of a map and its certificate."""
    freedom = {str(d): f for d, f in wmap.freedom.items()}
    witness = {"freedom": freedom, "top_killed": cert[0], "commutes": cert[1]}
    if cert[2] is not None:
        key, code = cert[2]
        witness["commutation_failure"] = {"block": [key[0], list(key[1])], "code": code}
    return witness


def verify_intertwiner(max_degree, cache_dir=None):
    """Certify the intertwiner inside the window: existence, uniqueness
    report per degree, annihilation of the source top vector, and (post hoc,
    independently of the solver) commutation with every color operator on
    every basis vector.  The map and its certificate come from the store
    (_solved_w) that the projection chain reads, so a run solves and checks
    each map once."""
    t0 = time.perf_counter()
    wmap, cert = _certified_w(max_degree, cache_dir)
    return StepReport(
        step="intertwiner",
        inputs={"max_degree": max_degree},
        ok=all(cert[:2]),
        witness=_witness(wmap, cert),
        seconds=time.perf_counter() - t0,
    )


def _check_commutation(source, target, wmap, max_degree):
    """W[t1].A1 == A2.W[key] for every source block `key` and every color
    loop element x with x(key) = t1 inside the window, as integer products
    cross-multiplied by the denominators: with A1 = a1/d1, A2 = a2/d2,
    W[t1] over e1 and W[key] over e, it checks
    (W[t1].a1) * d2 * e == (a2.W[key]) * e1 * d1.  It reads only the solved
    blocks and the action matrices, never the solver's equations.  Source
    blocks above the window, which a model closed deeper holds, are
    skipped: w has no blocks there.  So, before its action matrices, is an
    equation into an empty target block shift(t1): both sides map into the
    zero space, so no claim is weakened.  Returns None, or the first
    failing (source block, loop code)."""
    for key in source.block_keys():
        if key[0] > max_degree:
            break  # the keys ascend by degree
        n1 = source.dim(key)
        w, e = wmap.block(key)
        for base in affine.COLOR_BASES:
            for n in range(-max_degree, max_degree + 1):
                le = affine.encode(-n, base)
                t1 = source.target_key(le, key)
                if not 0 <= t1[0] <= max_degree or not target.dim(_shift(t1)):
                    continue
                _, a1, d1 = source.act_matrix(le, key)
                _, a2, d2 = target.act_matrix(le, _shift(key))
                w1, e1 = wmap.block(t1)
                left = _matmul(w1, a1, n1)
                right = _matmul(a2, w, n1)
                if _scaled(left, d2 * e) != _scaled(right, e1 * d1):
                    return key, le
    return None


def _scaled(rows, s):
    return [[x * s for x in row] for row in rows]


# ---------------------------------------------------------------------------
# tensor-slot operators and the projection chain
# ---------------------------------------------------------------------------


def _long_root_labels(kind):
    """(k0, k1) of a long-root kind (partitions.A1Standard), the only kind
    the projection chain and the cross-model check are defined for: they
    read no other label.  Any other kind raises ValueError."""
    if not isinstance(kind, parts_mod.A1Standard):
        raise ValueError("the chain and the cross-model check are defined for long-root kinds")
    return kind.k0, kind.k1


def build_w_ks(wmap, n_slots, s):
    """The operator w_{k1,s}: the intertwiner applied to each of the last s
    of n_slots tensor slots in turn (maps on different slots commute).
    Input states must carry source-module triples in those slots; output
    states carry target-module triples there.  With s = 0 it returns its
    input."""

    def apply(vec):
        for slot in range(n_slots - s, n_slots):
            vec = _slot_map(vec, slot, lambda key: (_shift(key),) + wmap.block(key), {})
        return vec

    return apply


def verify_projection_chain(kind, pi, cache_dir=None):
    """Certify the absorption of the mode-0 block of an admissible partition
    inside tensor models of level-1 truncated modules:

      (i)  w_{k1,c0} sends the color-monomial vector of pi (mode-0 block
           realized by x21'(0) factors) to a nonzero multiple of the color
           monomial of pi without its mode-0 block, over the smaller highest
           weight (k0, k1-c0, c0);
      (ii) w_{k1,s} kills that vector for every s with c0 < s <= k1.

    The tensor models and w are those of the partition's own window,
    max(degree, 1), on the shared models (get_truncated), which may hold
    more.  w and its certificate come from the store (_solved_w), so
    partitions share one solve and check; a w that is not certified on the
    window fails the step, with verify_intertwiner's witness there."""
    t0 = time.perf_counter()
    k0, k1 = _long_root_labels(kind)
    pi1, c0 = pi.split_c0()
    inputs = {"partition": pi.to_dict(), "labels": [k0, k1], "c0": c0}
    depth = max(pi.degree, 1)
    wmap, cert = _certified_w(depth, cache_dir)
    certificate = _witness(wmap, cert)
    if not all(cert[:2]):
        return StepReport("projection_chain", inputs, False, certificate, time.perf_counter() - t0)
    m0 = get_truncated(HighestWeightSpec(1, 0, 0), depth, cache_dir)
    m1, m2 = wmap.source, wmap.target
    src = TensorModule([m0] * k0 + [m1] * k1, depth)
    u = src.act_word(parts_mod.translated_color_word(pi))
    n_slots = k0 + k1

    # clause (i): absorb the mode-0 block
    lhs = build_w_ks(wmap, n_slots, c0)(u)
    tgt = TensorModule([m0] * k0 + [m1] * (k1 - c0) + [m2] * c0, depth)
    mu = _proportionality(lhs, tgt.act_word(parts_mod.color_word(pi1)))
    # clause (ii): one more application kills
    killed = [not build_w_ks(wmap, n_slots, s)(u) for s in range(c0 + 1, k1 + 1)]
    ok = mu is not None and mu != 0 and all(killed)

    return StepReport(
        step="projection_chain",
        inputs=inputs,
        ok=bool(ok),
        witness={
            "mu": _fmt(mu) if mu is not None else None,
            "higher_killed": killed,
            "freedom": certificate["freedom"],
        },
        seconds=time.perf_counter() - t0,
    )


def sweep_projection_chain(kind, max_degree, cache_dir=None):
    """verify_projection_chain over every admissible partition up to
    max_degree, aggregated into one report (witness lists each mu).  It
    first solves and certifies w on its deepest window, max(max_degree, 1),
    so each partition reads that map restricted to its own window
    (_solved_w): a sweep solves once, and a later sweep no deeper solves
    nothing.  A kind other than A1Standard and a negative window raise
    ValueError before any model is built."""
    _long_root_labels(kind)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative, got %d" % max_degree)
    _certified_w(max(max_degree, 1), cache_dir)
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
    Each word's vector is computed once in each model; the Verma side pairs
    the left word with the right vector (pair_mono), as the basis verifiers
    do.  A kind other than A1Standard raises ValueError before any model is
    built: the tensor arena holds only the level-1 models of labels k0 and
    k1."""
    t0 = time.perf_counter()
    k0, k1 = _long_root_labels(kind)
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
            a = verma.kernel.pair_mono(words[i], verma_vecs[j])
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
        inputs=kind.report_inputs(max_degree),
        ok=ok,
        witness={"pairs_checked": checked, "mismatches": mismatches},
        seconds=time.perf_counter() - t0,
    )
