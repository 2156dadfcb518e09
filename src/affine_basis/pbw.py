"""Highest weight modules and their block bases.

Everything is computed inside a Verma-type module M with highest weight
vector v: monomial vectors are normal-ordered words applied to v, vectors
are integer combinations of them, held everywhere as the kernel's plain
dicts {monomial: coefficient}, and the irreducible quotient L is reached
exactly through the contravariant (Gram) form.  Its radical is the maximal
submodule (Kac, Infinite-Dimensional Lie Algebras, ch. 9), so a vector is
zero in L iff it pairs to zero with a spanning family of its (degree,
weight) block, and graded dimensions of L are Gram ranks.  The highest
weight is dominant integral, so the form is positive definite on L (Kac,
Thm 11.7): a vector is zero in L iff its norm is zero.  This avoids any
reliance on character formulas.

Blocks are indexed by (degree, finite weight), with degree counting total
negated modes and weight the absolute eps-coordinate weight of the vectors
(highest weight included).

Closure.  Every PBW monomial vector other than v is x.m for a storable
generator x (its leftmost factor) and a shorter monomial vector m, and the
radical is a submodule.  So block (d, w) of L is spanned by the vectors
x.b, where x runs over the storable generators and b over a basis of the
predecessor block (d, w) - x.  Block bases are built that way, from the
bases below them: a basis element is a word (x,) + b of loop codes, whose
vector is x applied to the vector of b, and the top block's basis is the
empty word.  A block with no nonzero predecessor is empty, so the blocks
where L is nonzero ("support") are the top block and the blocks reached
from it by single storable steps through nonzero blocks; no weight-support
assumption enters.

Increasing words.  Only the candidates (x,) + b with b empty or x <= b[0]
are scanned, so every basis word is weakly increasing in its codes.  The
others are in the span of the candidates scanned before them, so the
greedy keep test (see block_basis) would reject each one, and skipping
them changes no kept word, Gram matrix or rank.  The scan takes the
candidates by ascending first code x.  Take b = (y,) + b' with y < x:

  * x.y = y.x + [x, y] in the enveloping algebra.  The central term of
    [x(i), y(j)] is i <x, y> c when i + j = 0, and two storable codes have
    modes summing to 0 only when both are at mode 0, where i = 0.
  * x.b' lies in block T - y, for T the block of (x,) + b.  So modulo the
    radical y.(x.b') is a combination of the candidates (y,) + k, k in the
    basis of T - y; if that block was never reached, the term is zero.
  * [x, y] is a combination of codes z of the module's generators, which
    must be closed under the bracket, and each (z,) + b' is a candidate of
    T.  Each z is below x: if mode(y) < 0 then mode(z) < mode(x), and
    otherwise both are mode-0 storable codes, where the only nonzero
    brackets are [3, 1] = -2 x0 and [3, 2] = -x1.
  * Every term is a candidate with first code below x, so it comes earlier
    in the scan.  By induction on the scan order, every skipped candidate
    lies in the span of the scanned candidates before it.

The same argument shows that every nonzero block other than the top one
has a nonzero increasing candidate, so it is reached by an increasing step
(x,) + b from a nonzero block: one with x at most the largest first code
of that block's basis words.

One build path.  Only block_support builds blocks, in topological order:
by increasing (degree, -(2*w1 + w2)).  Every storable step raises that
key: a negative mode raises the degree, and the mode-0 storable generators
(bases 0-3, of weights (-2,0), (-1,-1), (0,-2), (-1,1)) lower 2*w1 + w2 by
4, 3, 2 or 1.  So a predecessor not built yet was never reached and is
empty.  From a nonzero block block_support takes only the steps that give
an increasing candidate, every step from the top block.
VermaModule._closed is the highest degree the closure has run to.

Module kinds are distinguished only by the generator subset used for
monomials, which must be closed under the bracket (the increasing-word
proof needs every [x, y] among the generators):

  * GEN_C2     all ten basis elements (the full module),
  * GEN_A1     the long-root triple f, h, e (modules for the subalgebra),
  * GEN_COLORS the three commuting colors (principal subspace families).
"""

from dataclasses import dataclass, field
import heapq

from . import affine
from . import cache as cache_mod
from . import linalg
from .cartan import build_c2, table_hash, finite_weight, a1_subalgebra
from .kernels import VermaKernel, UKernel
from .linalg import rank_int  # noqa: F401 - verify calls pbw.rank_int

GEN_C2 = tuple(range(10))
GEN_A1 = a1_subalgebra()          # (0, 6, 9) = (f, h, e)
GEN_COLORS = affine.COLOR_BASES   # (5, 8, 9) = (x22, x12, x11)

# The Weyl group of the finite algebra each generator set spans, as maps
# (p, s, t): (w1, w2) -> (s * w_p, t * w_(1-p)): W(C2) is the 8 signed
# permutations, the long-root A1 reflects w1, and the colors commute.
_WEYL_MAPS = {
    GEN_C2: tuple((p, s, t) for p in (0, 1) for s in (1, -1) for t in (1, -1)),
    GEN_A1: ((0, -1, 1),),
}


@dataclass(frozen=True)
class HighestWeightSpec:
    """Dominant integral highest weight k0*L_0 + k1*L_1 + k2*L_2 (affine
    fundamental weights); the finite part is k1*omega1 + k2*omega2 and the
    central charge is k0 + k1 + k2."""

    k0: int
    k1: int
    k2: int = 0

    def __post_init__(self):
        for k in (self.k0, self.k1, self.k2):
            if k < 0 or k != int(k):
                raise ValueError("labels must be nonnegative integers")

    @property
    def level(self):
        return self.k0 + self.k1 + self.k2

    @property
    def weight(self):
        return finite_weight(self.k1, self.k2)

    def as_tuple(self):
        return (self.k0, self.k1, self.k2)


@dataclass
class BlockBasis:
    """A true basis of one (degree, weight) block of the irreducible
    quotient: a maximal subfamily of the block's closure candidates with
    nonsingular Gram matrix, found incrementally.  Each basis element is a
    word of loop codes, `(x,) + b` for a basis word b of the block below,
    and `()` for the top block; `vectors` holds each word's vector in the
    Verma module, a plain dict like every vector here.  `candidates` counts
    the increasing closure candidates scanned (see the module docstring).
    `factor` is linalg.gram_factor(matrix), as the keep test built it (or
    the disk-cache entry check), so the Gram matrix is eliminated once per
    process; factor[1][-1] is its determinant.  `rejected` maps each
    candidate the scan rejected to the Bareiss row u its keep test computed
    against the m = len(u) words kept before it, so linalg.back_substitute
    on the first m rows of `factor` gives its coordinates over minors[m]
    with no second pairing; it is None on a block loaded from the disk
    cache, which was never scanned."""

    basis: tuple       # chosen words, deterministic order
    matrix: list       # integer Gram entries of the chosen vectors
    candidates: int
    vectors: tuple = field(repr=False)
    factor: tuple = field(repr=False)
    rejected: dict = field(repr=False)

    @property
    def rank(self):
        return len(self.basis)


class VermaModule:
    """Highest weight module with monomials drawn from a generator subset.
    `gens` must be closed under the bracket (ValueError otherwise): the
    scan of increasing words rests on it."""

    def __init__(self, spec, gens=GEN_C2, cache_dir=None):
        self.spec = spec
        self.gens = tuple(sorted(gens))
        self.table = build_c2()
        for i in self.gens:
            for j in self.gens:
                missing = sorted({k for _, k in self.table.bracket[i][j]} - set(self.gens))
                if missing:
                    raise ValueError(
                        "generators %r are not closed under the bracket: [%d, %d] needs %r"
                        % (self.gens, i, j, missing)
                    )
        wt = spec.weight
        self.lam_wt = wt
        self.kernel = VermaKernel(
            self.table.bracket,
            self.table.form,
            self.table.sigma,
            wt[1],  # weight(h2)
            wt[0],  # weight(h1)
            spec.level,
        )
        self.cache = cache_mod.GramCache(cache_dir)
        self._table_hash = table_hash(self.table)
        self._bases = {}
        self._steps = {}
        self._closed = -1  # highest degree block_support has run to

    # -- vectors ----------------------------------------------------------

    def vacuum(self):
        return {(): 1}

    def act_word(self, word, vec=None):
        """Apply a word of loop codes (leftmost factor acts last)."""
        return self.kernel.act_word(tuple(word), self.vacuum() if vec is None else vec)

    def abs_weight(self, mono):
        sh = affine.word_weight(mono)
        return (self.lam_wt[0] + sh[0], self.lam_wt[1] + sh[1])

    def pair(self, u, v):
        """Contravariant form <u, v>, exact."""
        total = 0
        for m, c in u.items():
            total += c * self.kernel.pair_mono(m, v)
        return total

    # -- block bases ---------------------------------------------------------

    def _storable_steps(self, mode):
        """[(code, weight)] of the storable generators at `mode`, in
        ascending code order; one table per mode and module."""
        steps = self._steps.get(mode)
        if steps is None:
            steps = []
            for b in self.gens:
                le = affine.encode(mode, b)
                if affine.storable(le):
                    steps.append((le, self.table.weights[b]))
            self._steps[mode] = steps
        return steps

    def block_basis(self, degree, weight):
        """A true basis of the (degree, weight) block of the irreducible
        quotient, built from the bases of the blocks below it.

        Closure.  The candidates are the increasing words (x,) + b, in a
        fixed order: each storable code x in turn, then each basis word b of
        the predecessor block (degree, weight) - x with b empty or
        x <= b[0]; the vector of (x,) + b is x applied to the vector of b.
        They span the block in the quotient (see the module docstring), so a
        block with no candidates is empty.
        A call above every degree closed so far runs block_support to this
        degree first; a block still not built was not reached, and its scan
        finds no candidate.

        Selection.  A candidate is kept iff its Gram-Schur complement against
        the words already kept is nonzero; each kept word is paired with the
        candidate's vector (kernel.pair_mono).  The test runs on integers:
        linalg.bordered_minor grows the leading principal minors D_1, ...,
        D_r of the kept vectors' Gram matrix (Bareiss), and the bordered
        minor D_{r+1} = D_r * (Schur complement) decides.  The contravariant
        form is positive definite on every block of the quotient (the
        highest weight is dominant integral), so a zero complement certifies
        linear dependence, a zero self-pairing certifies the zero vector, and
        a negative minor is impossible; one raises ArithmeticError.  The
        bordered row u of each rejected candidate is kept
        (BlockBasis.rejected): it gives that candidate's coordinates.

        A disk-cache entry is keyed by the block's candidate words and used
        only if its chosen indices are strictly increasing and in range and
        its Gram matrix is a symmetric positive definite integer matrix;
        otherwise the block is recomputed and the entry overwritten."""
        key = (degree, tuple(weight))
        bb = self._bases.get(key)
        if bb is None and degree > self._closed:
            self.block_support(degree)
            bb = self._bases.get(key)
        if bb is None:
            bb = self._bases[key] = self._scan(key)
        return bb

    def _candidates(self, key):
        """The closure candidates of a block, as (word, x, vector of the
        parent word), in ascending codes x: the deepest mode first, bases
        upwards within a mode.  The longest steps come first, so the kept
        words stay short and their vectors small.  Only the increasing words
        are taken, those whose parent word b is empty or starts at a code
        >= x: the others would all be rejected (see the module docstring).
        A predecessor not built adds none: it was never reached, so it is
        empty."""
        degree, (w1, w2) = key
        out = []
        for mode in range(-degree, 1):
            for x, (x1, x2) in self._storable_steps(mode):
                blk = self._bases.get((degree + mode, (w1 - x1, w2 - x2)))
                if blk is not None:
                    out.extend(
                        ((x,) + b, x, vec)
                        for b, vec in zip(blk.basis, blk.vectors)
                        if not b or x <= b[0]
                    )
        return out

    def _cache_key(self, key, words):
        return cache_mod.block_key(
            self._table_hash,
            self.lam_wt + (len(self.gens),),
            self.spec.level,
            key[0],
            key[1],
            words,
        )

    def _scan(self, key):
        """The basis of one block, from the predecessors already built, with
        the keep test's row of each candidate it rejects (BlockBasis); a
        disk-cache hit skips the keep test and records no rows."""
        if key == (0, self.lam_wt):
            return BlockBasis(((),), [[1]], 1, ({(): 1},), ([[]], [1, 1]), {})
        cands = self._candidates(key)
        words = [word for word, _, _ in cands]

        def vector(j):
            _, x, parent = cands[j]
            return self.kernel.act_word((x,), parent)

        entry = ckey = rejected = None
        if self.cache.root and words:
            ckey = self._cache_key(key, words)
            entry = self.cache.get_json(ckey, lambda r: _valid_basis_entry(r, len(words)))
        if entry is not None:
            picked, gram, factor = entry
            vectors = [vector(j) for j in picked]
        else:
            picked, vectors, gram, rejected = [], [], [], {}
            cols, minors = factor = [], [1]
            pair = self.kernel.pair_mono
            for j, word in enumerate(words):
                vec = vector(j)
                p = [pair(words[c], vec) for c in picked]
                nu = pair(word, vec)
                u, d = linalg.bordered_minor(cols, minors, p, nu)
                if not d:
                    rejected[word] = u
                    continue
                if d < 0:
                    raise ArithmeticError(
                        "contravariant form is not positive definite on block %r" % (key,)
                    )
                for r, row in enumerate(gram):
                    row.append(p[r])
                gram.append(p + [nu])
                cols.append(u)
                minors.append(d)
                picked.append(j)
                vectors.append(vec)
            if ckey is not None:
                self.cache.put_json(
                    ckey,
                    {"chosen": picked, "gram": [[str(x) for x in row] for row in gram]},
                )
        return BlockBasis(
            basis=tuple(words[j] for j in picked),
            matrix=gram,
            candidates=len(words),
            vectors=tuple(vectors),
            factor=factor,
            rejected=rejected,
        )

    def block_support(self, max_degree):
        """All blocks with nonzero dimension up to max_degree: the top block
        and every block reached from it by storable steps through nonzero
        blocks (see the module docstring for why this is complete), built
        as they leave a heap in topological order.  From a nonzero block
        only the steps x that give an increasing candidate are pushed: x at
        most the largest first code of its basis words, and every step from
        the top block, whose basis word is ().  _closed is raised first,
        so the block_basis calls here do not recurse, and restored if the
        loop raises, so no later call scans a block whose predecessors were
        skipped.  Returns {(degree, weight): BlockBasis}.

        Weyl guard.  Each degree slice is a finite-dimensional module of the
        finite algebra the generators span, so dim(d, w) == dim(d, s.w) for
        every s in its Weyl group (_WEYL_MAPS; none for the colors).  The
        support is checked against it, a check that shares nothing with the
        Gram ranks, and a mismatch raises ArithmeticError."""
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative, got %d" % max_degree)
        closed, self._closed = self._closed, max(self._closed, max_degree)
        start = (0, self.lam_wt)
        support = {}
        seen = {start}
        heap = [_topological_key(start)]
        try:
            while heap:
                d, _, wt = heapq.heappop(heap)
                blk = self.block_basis(d, wt)
                if not blk.rank:
                    continue
                support[(d, wt)] = blk
                lead = None if d == 0 and wt == self.lam_wt else max(b[0] for b in blk.basis)
                for mode in range(0, d - max_degree - 1, -1):
                    for x, (x1, x2) in self._storable_steps(mode):
                        if lead is not None and x > lead:
                            continue
                        tgt = (d - mode, (wt[0] + x1, wt[1] + x2))
                        if tgt not in seen:
                            seen.add(tgt)
                            heapq.heappush(heap, _topological_key(tgt))
            for (d, wt), blk in support.items():
                for p, s, t in _WEYL_MAPS.get(self.gens, ()):
                    image = (d, (s * wt[p], t * wt[1 - p]))
                    dim = support[image].rank if image in support else 0
                    if dim != blk.rank:
                        raise ArithmeticError(
                            "block dimensions are not Weyl-invariant: dim %r = %d, dim %r = %d"
                            % ((d, wt), blk.rank, image, dim)
                        )
        except BaseException:
            self._closed = closed
            raise
        return dict(sorted(support.items()))

    def zero_in_quotient(self, vec):
        """True iff the vector maps to zero in the irreducible quotient.  The
        form is positive definite there (Kac, Thm 11.7), so its norm
        <vec, vec> decides and no block basis is built.  Raises ValueError
        if the terms lie in more than one block, and ArithmeticError on a
        negative norm, which positivity rules out."""
        blocks = {(affine.word_degree(m), self.abs_weight(m)) for m in vec}
        if len(blocks) > 1:
            raise ValueError("vector is not homogeneous: blocks %r" % (sorted(blocks),))
        norm = self.pair(vec, vec)
        if norm < 0:
            raise ArithmeticError("contravariant form is not positive definite: norm %s" % norm)
        return norm == 0


def _topological_key(key):
    """Heap entry of a block: (degree, -(2*w1 + w2), weight), strictly
    increasing along every storable step."""
    d, wt = key
    return (d, -(2 * wt[0] + wt[1]), wt)


def _valid_basis_entry(rec, n_candidates):
    """(chosen, gram, factor) of a well-formed cached block-basis record,
    else None: chosen indices strictly increasing in range(n_candidates),
    and a symmetric integer Gram matrix on them (entries stored as decimal
    strings) whose factor, linalg.gram_factor, the keep test the scan uses,
    has full rank without raising: by Sylvester's criterion, one whose
    leading principal minors are all positive."""
    try:
        chosen = rec["chosen"]
        gram = [[int(x) if isinstance(x, str) else None for x in row] for row in rec["gram"]]
        r = len(chosen)
    except (KeyError, TypeError, ValueError):
        return None
    if (
        not all(type(i) is int for i in chosen)
        or (r and not (0 <= chosen[0] and chosen[-1] < n_candidates))
        or any(a >= b for a, b in zip(chosen, chosen[1:]))
        or len(gram) != r
        or any(len(row) != r or None in row for row in gram)
        or any(gram[i][j] != gram[j][i] for i in range(r) for j in range(i))
    ):
        return None
    try:
        factor = linalg.gram_factor(gram)
    except ArithmeticError:
        return None
    return (chosen, gram, factor) if len(factor[0]) == r else None


# ---------------------------------------------------------------------------
# enveloping algebra layer (operator identities, not vectors)
# ---------------------------------------------------------------------------

_UK = None


def ukernel():
    global _UK
    if _UK is None:
        t = build_c2()
        _UK = UKernel(t.bracket, t.form)
    return _UK


def straighten(word):
    """Normal-ordered form of a word of loop codes in the enveloping
    algebra: dict {(central_exponent, monomial): int}."""
    return ukernel().mul_mono(tuple(word), ())


def add_into(out, terms, factor=1):
    """out += factor * terms in place, for sparse dicts {key: coefficient},
    dropping zero coefficients; returns out."""
    if factor:
        for k, c in terms.items():
            cc = out.get(k, 0) + factor * c
            if cc:
                out[k] = cc
            else:
                out.pop(k, None)
    return out

