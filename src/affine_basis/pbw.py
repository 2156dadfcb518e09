"""Highest weight modules and their PBW machinery.

Everything is computed inside a Verma-type module M with highest weight
vector v: monomial vectors are normal-ordered words applied to v, and the
irreducible quotient L is reached exactly through the contravariant (Gram)
form: a vector is zero in L iff it pairs to zero with every PBW monomial of
its (degree, weight) block, and graded dimensions of L are Gram ranks.
This avoids any reliance on character formulas.

Blocks are indexed by (degree, finite weight), with degree counting total
negated modes and weight the absolute eps-coordinate weight of the vectors
(highest weight included).  The set of blocks where L is nonzero ("support")
is discovered by closure from the top block: if a monomial vector is
nonzero in L, peeling its leftmost factor gives a shorter monomial vector
that is also nonzero, so every nonzero block is reachable from
(0, highest weight) by single storable-generator steps.  The closure is
therefore complete, with no weight-support assumptions.

The closure visits blocks in topological order, by increasing
(degree, -(2*w1 + w2)).  Every storable step raises that key: a negative
mode raises the degree, and the mode-0 storable generators (bases 0-3, of
weights (-2,0), (-1,-1), (0,-2), (-1,1)) lower 2*w1 + w2 by 4, 3, 2 or 1.
So the block of a monomial's suffix is always scanned before the block of
the monomial.  The radical of the form is a submodule, so x.m is zero in L
whenever m is; a scan that has certified a monomial zero therefore decides
every candidate x.m without pairing it (see VermaModule.block_basis).

Module kinds are distinguished only by the generator subset used for
monomials:

  * GEN_C2     all ten basis elements (the full module),
  * GEN_A1     the long-root triple f, h, e (modules for the subalgebra),
  * GEN_COLORS the three commuting colors (principal subspace families).
"""

from dataclasses import dataclass
import heapq
import json

from . import affine
from . import cache as cache_mod
from . import linalg
from .cartan import build_c2, table_hash, finite_weight, a1_subalgebra
from .kernels import VermaKernel, UKernel, rank_int  # noqa: F401 - verify calls pbw.rank_int

GEN_C2 = tuple(range(10))
GEN_A1 = a1_subalgebra()          # (0, 6, 9) = (f, h, e)
GEN_COLORS = affine.COLOR_BASES   # (5, 8, 9) = (x22, x12, x11)


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


@dataclass(frozen=True)
class PBWMonomial:
    """A normal-ordered monomial: weakly decreasing tuple of loop codes."""

    codes: tuple

    def __post_init__(self):
        if not affine.is_normal_ordered(self.codes):
            raise ValueError("factors are not normal ordered or not storable")

    @property
    def degree(self):
        return affine.word_degree(self.codes)

    def factors(self):
        """Run-length factorization [(mode, base, exponent)]."""
        out = []
        for le in self.codes:
            mode, base = affine.decode(le)
            if out and out[-1][0] == mode and out[-1][1] == base:
                out[-1][2] += 1
            else:
                out.append([mode, base, 1])
        return [tuple(t) for t in out]

    def tag(self):
        return " ".join(
            "%s%s" % (affine.tag_of(affine.encode(m, b)), "^%d" % e if e > 1 else "")
            for m, b, e in self.factors()
        ) or "1"


class ModuleVector:
    """A finite integer/rational combination of PBW monomial vectors."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms):
        self.module = module
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero_verma(self):
        return not self.terms

    def block(self):
        """(degree, weight) common to all terms; None for the zero vector.
        Raises if the vector is not homogeneous."""
        blocks = {
            (affine.word_degree(m), self.module.abs_weight(m)) for m in self.terms
        }
        if not blocks:
            return None
        if len(blocks) > 1:
            raise ValueError("vector is not homogeneous: blocks %r" % (sorted(blocks),))
        return blocks.pop()

    def scale(self, c):
        return ModuleVector(self.module, {m: c * v for m, v in self.terms.items()})

    def add(self, other, factor=1):
        out = dict(self.terms)
        for m, c in other.terms.items():
            cc = out.get(m, 0) + factor * c
            if cc:
                out[m] = cc
            else:
                out.pop(m, None)
        return ModuleVector(self.module, out)

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = []
        for m in sorted(self.terms, reverse=True):
            bits.append("%s * %s.v" % (self.terms[m], PBWMonomial(m).tag()))
        return "<" + " + ".join(bits) + ">"


@dataclass
class BlockBasis:
    """A true basis of one (degree, weight) block of the irreducible
    quotient: a maximal subfamily of PBW monomial vectors with nonsingular
    Gram matrix, found incrementally.  `candidates` counts the PBW monomials
    scanned (the Verma dimension of the block); rank == len(basis)."""

    degree: int
    weight: tuple
    basis: tuple       # chosen monomial code tuples, deterministic order
    matrix: list       # integer Gram entries of the chosen vectors
    rank: int
    candidates: int

    def to_json(self):
        return json.dumps(
            {
                "degree": self.degree,
                "weight": list(self.weight),
                "monomials": [list(m) for m in self.basis],
                "gram": [[str(x) for x in row] for row in self.matrix],
                "rank": self.rank,
                "candidates": self.candidates,
            },
            sort_keys=True,
        )


class VermaModule:
    """Highest weight module with monomials drawn from a generator subset."""

    def __init__(self, spec, gens=GEN_C2, cache_dir=None):
        self.spec = spec
        self.gens = tuple(sorted(gens))
        self.table = build_c2()
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
        self.mode0_bases = tuple(b for b in self.gens if b <= 3)
        self.cache = cache_mod.GramCache(cache_dir)
        self._table_hash = table_hash(self.table)
        self._negparts = {}
        self._mode0 = {}
        self._bases = {}
        # monomials this module's own scans certified zero in the quotient
        self._zero = set()
        # candidates paired by a scan, and candidates decided by the
        # zero-suffix rule without pairing
        self.scanned = 0
        self.skipped = 0

    # -- vectors ----------------------------------------------------------

    def vacuum(self):
        return ModuleVector(self, {(): 1})

    def act_word(self, word, vec=None):
        """Apply a word of loop codes (leftmost factor acts last)."""
        if vec is None:
            vec = self.vacuum()
        return ModuleVector(self, self.kernel.act_word(tuple(word), vec.terms))

    def vector(self, codes):
        """The monomial vector for an already normal-ordered code tuple."""
        PBWMonomial(tuple(codes))  # validate
        return ModuleVector(self, {tuple(codes): 1})

    def abs_weight(self, mono):
        sh = affine.word_weight(mono)
        return (self.lam_wt[0] + sh[0], self.lam_wt[1] + sh[1])

    def pair(self, u, v):
        """Contravariant form <u, v>, exact."""
        total = 0
        for m, c in u.terms.items():
            total += c * self.kernel.pair_mono(m, v.terms)
        return total

    # -- monomial enumeration ----------------------------------------------

    def _neg_parts(self, degree):
        """All weakly decreasing negative-mode code tuples of given total
        degree over the generator bases, with their weight shifts."""
        memo = self._negparts.get(degree)
        if memo is not None:
            return memo
        codes = [
            affine.encode(-m, b)
            for m in range(1, degree + 1)
            for b in self.gens
        ]
        codes.sort(reverse=True)
        weights = self.table.weights
        out = []

        def rec(idx, remaining, acc, wa, wb):
            if remaining == 0:
                out.append((tuple(acc), (wa, wb)))
                return
            if idx == len(codes):
                return
            le = codes[idx]
            step = affine.degree_of(le)
            w = weights[le & 15]
            rec(idx + 1, remaining, acc, wa, wb)
            count = 1
            while step * count <= remaining:
                rec(
                    idx + 1,
                    remaining - step * count,
                    acc + [le] * count,
                    wa + w[0] * count,
                    wb + w[1] * count,
                )
                count += 1

        rec(0, degree, [], 0, 0)
        out.sort(reverse=True)
        self._negparts[degree] = out
        return out

    def _mode0_solutions(self, t1, t2):
        """Exponent assignments for mode-0 storable generators matching the
        weight shift (t1, t2).  Finite: every such weight lowers eps1 or is
        (0,-2), so exponents are bounded by the target coordinates.
        Memoised per module: many blocks share a weight shift."""
        memo = self._mode0.get((t1, t2))
        if memo is not None:
            return memo
        bases = self.mode0_bases
        weights = self.table.weights
        order = [b for b in (0, 1, 3, 2) if b in bases]
        sols = []

        def rec(idx, r1, r2, acc):
            if idx == len(order):
                if r1 == 0 and r2 == 0:
                    sols.append(tuple(acc))
                return
            b = order[idx]
            wa, wb = weights[b]
            if wa < 0:
                if r1 > 0:
                    return
                cap = r1 // wa
            else:  # base 2, weight (0,-2), always last
                if r1 != 0 or r2 > 0:
                    cap = 0 if (r1 == 0 and r2 == 0) else -1
                else:
                    cap = (-r2) // 2
            for e in range(cap + 1):
                rec(idx + 1, r1 - e * wa, r2 - e * wb, acc + [(b, e)])

        rec(0, t1, t2, [])
        self._mode0[(t1, t2)] = sols
        return sols

    def pbw_monomials(self, degree, weight):
        """All normal-ordered monomials over the generator subset whose
        vectors lie in the (degree, weight) block, deterministically ordered."""
        out = []
        for negcodes, negwt in self._neg_parts(degree):
            t1 = weight[0] - self.lam_wt[0] - negwt[0]
            t2 = weight[1] - self.lam_wt[1] - negwt[1]
            for sol in self._mode0_solutions(t1, t2):
                zero = []
                for b, e in sorted(sol, reverse=True):
                    zero.extend([b] * e)
                out.append(tuple(zero) + negcodes)
        out.sort(reverse=True)
        return out

    # -- block bases ---------------------------------------------------------

    def block_basis(self, degree, weight):
        """A true basis of the (degree, weight) block of the irreducible
        quotient, built incrementally: scan the PBW monomials in their
        deterministic order and keep each one whose Gram-Schur complement
        against the vectors already kept is nonzero.  The test runs on
        integers: linalg.bordered_minor grows the leading principal minors
        D_1, ..., D_r of the kept vectors' Gram matrix (Bareiss), and the
        bordered minor D_{r+1} = D_r * (Schur complement) decides.  The
        contravariant form is positive definite on every block of the
        quotient (the highest weight is dominant integral), so a zero
        complement certifies linear dependence, a zero self-pairing
        certifies the zero vector, and a negative minor is impossible; one
        raises ArithmeticError.  The scan needs only O(candidates * rank)
        pairings instead of a full candidates^2 Gram matrix.

        Zero-suffix rule.  A scanned candidate whose self-pairing and
        bordered minor are both zero pairs to zero with every vector kept so
        far (their Gram matrix is positive definite, its minors being
        positive), and its zero norm certifies it is zero in the quotient;
        the module records it.  The candidate mono = x.mono[1:] is then
        zero whenever mono[1:] is recorded (the radical is a submodule), so
        it is recorded too and not paired at all: it would not have been
        kept anyway, and the basis, Gram matrix and candidate count are
        the same as without the rule.  Only this module's own scans feed the
        record; blocks loaded from the disk cache add nothing.  block_support
        scans suffix blocks first, so there the rule sees every suffix.

        A disk-cache entry is used only if its chosen indices are strictly
        increasing and in range and its Gram matrix is a symmetric integer
        matrix whose leading minors are all positive; otherwise the block is
        recomputed and the entry overwritten."""
        key = (degree, tuple(weight))
        bb = self._bases.get(key)
        if bb is not None:
            return bb
        monos = self.pbw_monomials(degree, weight)
        chosen = gram = None
        ckey = None
        if self.cache.root and monos:
            ckey = cache_mod.block_key(
                self._table_hash,
                self.lam_wt + (len(self.gens),),
                self.spec.level,
                degree,
                weight,
                monos,
            )
            rec = self.cache.get_json(
                ckey, check=lambda r: _valid_basis_entry(r, len(monos))
            )
            if rec is not None:
                chosen = [monos[i] for i in rec["chosen"]]
                gram = [[int(x) for x in row] for row in rec["gram"]]
        if chosen is None:
            chosen = []
            picked = []
            gram = []
            cols, minors = [], [1]
            pair = self.kernel.pair_monos
            zero = self._zero
            skipped = 0
            for idx, mono in enumerate(monos):
                if mono[1:] in zero:
                    zero.add(mono)
                    skipped += 1
                    continue
                p = [pair(b, mono) for b in chosen]
                nu = pair(mono, mono)
                u, d = linalg.bordered_minor(cols, minors, p, nu)
                if not d:
                    if not nu:
                        zero.add(mono)
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
                chosen.append(mono)
                picked.append(idx)
            self.skipped += skipped
            self.scanned += len(monos) - skipped
            if ckey is not None:
                self.cache.put_json(
                    ckey,
                    {"chosen": picked, "gram": [[str(x) for x in row] for row in gram]},
                )
        bb = BlockBasis(
            degree=degree,
            weight=tuple(weight),
            basis=tuple(chosen),
            matrix=gram,
            rank=len(chosen),
            candidates=len(monos),
        )
        self._bases[key] = bb
        return bb

    def graded_dimension(self, degree, weight):
        """dim of the (degree, weight) block of the irreducible quotient."""
        return self.block_basis(degree, weight).rank

    def block_support(self, max_degree):
        """All blocks with nonzero dimension up to max_degree, found by
        closure from the top block in topological order (see the module
        docstring for why the closure is complete and why every suffix
        block comes first).  The blocks scanned are the top block and every
        one-step target of a nonzero block; each is scanned when it leaves
        the heap.  Returns {(degree, weight): BlockBasis}."""
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative, got %d" % max_degree)
        start = (0, self.lam_wt)
        support = {}
        seen = {start}
        heap = [_topological_key(start)]
        while heap:
            d, _, wt = heapq.heappop(heap)
            blk = self.block_basis(d, wt)
            if not blk.rank:
                continue
            support[(d, wt)] = blk
            for mode in range(0, d - max_degree - 1, -1):
                for b in self.gens:
                    if not affine.storable(affine.encode(mode, b)):
                        continue
                    w = self.table.weights[b]
                    tgt = (d - mode, (wt[0] + w[0], wt[1] + w[1]))
                    if tgt not in seen:
                        seen.add(tgt)
                        heapq.heappush(heap, _topological_key(tgt))
        return dict(sorted(support.items()))

    def dims_by_degree(self, max_degree):
        """Total dimension of each degree slice of the irreducible quotient."""
        dims = [0] * (max_degree + 1)
        for (d, _), blk in self.block_support(max_degree).items():
            dims[d] += blk.rank
        return dims

    def zero_in_quotient(self, vec):
        """True iff the vector maps to zero in the irreducible quotient,
        i.e. pairs to zero with a spanning family of its block (the radical
        of the contravariant form is the maximal submodule, and the block
        basis spans the block)."""
        if vec.is_zero_verma():
            return True
        degree, weight = vec.block()
        for mono in self.block_basis(degree, weight).basis:
            if self.kernel.pair_mono(mono, vec.terms):
                return False
        return True


def _topological_key(key):
    """Heap entry of a block: (degree, -(2*w1 + w2), weight), strictly
    increasing along every storable step."""
    d, wt = key
    return (d, -(2 * wt[0] + wt[1]), wt)


def _valid_basis_entry(rec, n_candidates):
    """True iff a cached block-basis record is well formed: chosen indices
    strictly increasing in range(n_candidates), and a symmetric integer
    Gram matrix on them (entries stored as decimal strings) whose leading
    principal minors are all positive, recomputed by the same integer
    update the scan uses."""
    try:
        chosen = rec["chosen"]
        gram = [[int(x) if isinstance(x, str) else None for x in row] for row in rec["gram"]]
    except (KeyError, TypeError, ValueError):
        return False
    r = len(chosen)
    if not all(type(i) is int for i in chosen):
        return False
    if r and not (0 <= chosen[0] and chosen[-1] < n_candidates):
        return False
    if any(a >= b for a, b in zip(chosen, chosen[1:])):
        return False
    if len(gram) != r or any(len(row) != r or None in row for row in gram):
        return False
    if any(gram[i][j] != gram[j][i] for i in range(r) for j in range(i)):
        return False
    return all(d > 0 for d in linalg.leading_minors(gram))


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
    out = {(0, ()): 1}
    for le in reversed(tuple(word)):
        uk = ukernel()
        nxt = {}
        for (dc, m), c in out.items():
            for (dc2, m2), c2 in uk.mul_le(le, m).items():
                k = (dc + dc2, m2)
                cc = nxt.get(k, 0) + c * c2
                if cc:
                    nxt[k] = cc
                else:
                    nxt.pop(k, None)
        out = nxt
    return out


def algebra_add(a, b, factor=1):
    out = dict(a)
    for k, c in b.items():
        cc = out.get(k, 0) + factor * c
        if cc:
            out[k] = cc
        else:
            out.pop(k, None)
    return out


def algebra_mul(a, b):
    uk = ukernel()
    out = {}
    for (dc1, m1), c1 in a.items():
        for (dc2, m2), c2 in b.items():
            for (dc3, m3), c3 in uk.mul_mono(m1, m2).items():
                k = (dc1 + dc2 + dc3, m3)
                cc = out.get(k, 0) + c1 * c2 * c3
                if cc:
                    out[k] = cc
                else:
                    out.pop(k, None)
    return out

