"""The straightening kernel.

This module implements the computational hot spot exactly, over the
integers, with no dependency on the rest of the package (structure data is
passed in as plain nested tuples).  There is one recursion, act_le:

  * VermaKernel -- normal-ordered action of loop elements on a generic
    highest weight module, with memoization; the contravariant pairing of
    a word with a monomial or a vector.
  * UKernel     -- straightening in the enveloping algebra U(g[t^-1]) of
    the loop codes of mode <= 0, used for identities between operators
    rather than vectors.  It is VermaKernel with a wider creation bound.

Creation bound.  A code below the class constant CREATE is a creation
operator: it is prepended to a monomial whose leading code it does not
undercut, and on the vacuum it makes the one-letter monomial.  Every other
code is commuted toward the vacuum (x.head = head.x + [x, head]), where it
acts by its weight in `lam` (zero for codes not in it).  VermaKernel's
bound is 4, the storable codes (mode < 0, or mode 0 and base < 4).
UKernel's is 16, every code of mode <= 0: by PBW, U(g[t^-1]) is a
subalgebra of U(g^) and a free rank-one module over itself, so a word's
normal form there is its action on that module's vacuum, and each identity
certified there holds in U(g^).  No central term enters: the cocycle
i <x, y> c of [x(i), y(j)] needs i + j = 0, which for i, j <= 0 forces
i = 0 (Kac, Infinite-Dimensional Lie Algebras, ch. 7).

Memos.  Each kernel object owns its memos.  Each holds one table per
outer key, so no key tuple is built per entry, and stores each result
once, as an immutable value that a hit returns itself:

  * VermaKernel._memo  -- act_le results (straightening), as
    _memo[le][mono] = tuple of (monomial, coefficient) pairs, () for the
    zero vector;
  * VermaKernel._pmemo -- pair_monos results, as _pmemo[m1][m2] = int.
    Block bases are built from the bases below, so one build straightens
    and pairs the same words many times;
  * UKernel._memo      -- act_le results, laid out as VermaKernel's.

clear_memos empties VermaKernel's two memos and changes no result.

Encoding: a loop element x(n) is the integer le = 16*n + base (see affine).
Monomials are tuples of codes, weakly decreasing left to right; the empty
tuple is the highest weight vector.  Vectors are dicts {monomial: coeff}
with nonzero coefficients; act_le's memoised results hold the same terms
as a tuple of pairs, which act_word and pair_monos iterate.  All structure
constants are integers, so module coefficients stay integers whenever the
input coefficients are.
"""

from collections import defaultdict


class VermaKernel:
    """Action of the affine algebra on a Verma-type module with highest
    weight data (lam4, lam6) = (weight(h2), weight(h1)) and central charge
    `level`.  No quotient is taken: vectors live in the free module; the
    irreducible quotient is reached through Gram ranks of the contravariant
    form, for which <v, v> = 1 and distinct monomial gradings pair to 0.
    """

    CREATE = 4

    def __init__(self, bracket, form, sigma, lam4, lam6, level):
        self.bracket = bracket
        self.form = form
        self.sigma = sigma
        self.lam = {4: lam4, 6: lam6}
        self.level = level
        self._memo = defaultdict(dict)
        self._pmemo = defaultdict(dict)

    def act_le(self, le, mono):
        """x(le) . (mono . v) as a tuple of (monomial, int) pairs, stored
        once in _memo[le][mono]; the zero vector is ()."""
        table = self._memo[le]
        out = table.get(mono)
        if out is not None:
            return out
        if not mono:
            if le < self.CREATE:
                out = (((le,), 1),)
            else:
                lam = self.lam.get(le, 0)
                out = (((), lam),) if lam else ()
        elif le < self.CREATE and le >= mono[0]:
            out = (((le,) + mono, 1),)
        else:
            # x*head = head*x + [x, head]; push x toward the vacuum.
            head = mono[0]
            rest = mono[1:]
            acc = {}
            for m2, c2 in self.act_le(le, rest):
                for m3, c3 in self.act_le(head, m2):
                    c = acc.get(m3, 0) + c2 * c3
                    if c:
                        acc[m3] = c
                    elif m3 in acc:
                        del acc[m3]
            i = le >> 4
            b1 = le & 15
            j = head >> 4
            b2 = head & 15
            for cf, k in self.bracket[b1][b2]:
                le2 = ((i + j) << 4) + k
                for m3, c3 in self.act_le(le2, rest):
                    c = acc.get(m3, 0) + cf * c3
                    if c:
                        acc[m3] = c
                    elif m3 in acc:
                        del acc[m3]
            if i + j == 0:
                f = self.form[b1][b2]
                if f:
                    c = acc.get(rest, 0) + i * f * self.level
                    if c:
                        acc[rest] = c
                    elif rest in acc:
                        del acc[rest]
            out = tuple(acc.items())
        table[mono] = out
        return out

    def clear_memos(self):
        """Empty the straightening and pair memos.  Results do not change:
        act_le and pair_monos recompute what they need."""
        self._memo.clear()
        self._pmemo.clear()

    def act_word(self, word, vec):
        """Apply a word of loop elements (leftmost acts last) to a vector."""
        for le in reversed(word):
            out = {}
            for m, c in vec.items():
                for m2, c2 in self.act_le(le, m):
                    cc = out.get(m2, 0) + c * c2
                    if cc:
                        out[m2] = cc
                    elif m2 in out:
                        del out[m2]
            vec = out
        return vec

    def pair_monos(self, m1, m2):
        """<m1 . v, m2 . v> under the contravariant form, for m2 a monomial
        and m1 any word of loop codes (in any order, any modes).  Peels the
        leading (outermost) factor of m1 onto m2 through the form's adjoint
        property; memoized as _pmemo[suffix][monomial].  Block bases pair
        their words here, so the suffixes are the basis words of the blocks
        below and every block shares their entries."""
        table = self._pmemo[m1]
        val = table.get(m2)
        if val is not None:
            return val
        if not m1:
            val = 1 if not m2 else 0
        else:
            le = m1[0]
            dual = ((-(le >> 4)) << 4) + self.sigma[le & 15]
            rest = m1[1:]
            total = 0
            for m, c in self.act_le(dual, m2):
                s = self.pair_monos(rest, m)
                if s:
                    total += c * s
            val = total
        table[m2] = val
        return val

    def pair_mono(self, mono, vec):
        """<mono . v, vec> under the contravariant form; `mono` may be any
        word, as in pair_monos."""
        total = 0
        for m, c in vec.items():
            s = self.pair_monos(mono, m)
            if s:
                total += c * s
        return total


class UKernel(VermaKernel):
    """Straightening in U(g[t^-1]): act_le and act_word on words of codes of
    mode <= 0, on the vacuum of U(g[t^-1]) itself, give normal-ordered
    elements {monomial: int}.  No weight and no level: nothing of mode
    <= 0 reaches the vacuum except to be prepended."""

    CREATE = 16

    def __init__(self, bracket, form):
        self.bracket = bracket
        self.form = form
        self.lam = {}
        self.level = 0
        self._memo = defaultdict(dict)
