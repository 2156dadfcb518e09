"""The straightening kernel.

This module implements the two computational hot spots exactly, over the
integers, with no dependency on the rest of the package (structure data is
passed in as plain nested tuples):

  * VermaKernel -- normal-ordered action of loop elements on a generic
    highest weight module, with memoization; the contravariant pairing of
    a word with a monomial or a vector.
  * UKernel     -- straightening in the universal enveloping algebra itself
    (central element tracked as an explicit exponent), used for identities
    between operators rather than vectors.

Memos.  Each kernel object owns its memos, and they live as long as it
does unless its owner empties them:

  * VermaKernel._memo  -- act_le results (straightening), and
  * VermaKernel._pmemo -- pair_monos results.  Block bases are built from
    the bases below, so one build straightens and pairs the same words
    many times.  A truncated model (intertwiner.TruncatedModule) empties
    both, through clear_memos, after each close that scanned a block and
    after each action matrix it computes: its action matrices take the
    rejected candidates' coordinates from the scan's rows and straighten
    and pair only the images into empty blocks (and the rejected
    candidates of blocks loaded from the disk cache), so both memos live
    for one build or one action matrix.
  * UKernel._memo      -- mul_le results, for the life of the kernel (one
    per process, pbw.ukernel).

Encoding: a loop element x(n) is the integer le = 16*n + base (see affine).
Monomials are tuples of codes, weakly decreasing left to right; the empty
tuple is the highest weight vector.  Vectors are dicts {monomial: coeff}
with nonzero coefficients.  All structure constants are integers, so module
coefficients stay integers whenever the input coefficients are.
"""


class VermaKernel:
    """Action of the affine algebra on a Verma-type module with highest
    weight data (lam4, lam6) = (weight(h2), weight(h1)) and central charge
    `level`.  No quotient is taken: vectors live in the free module; the
    irreducible quotient is reached through Gram ranks of the contravariant
    form, for which <v, v> = 1 and distinct monomial gradings pair to 0.
    """

    def __init__(self, bracket, form, sigma, lam4, lam6, level):
        self.bracket = bracket
        self.form = form
        self.sigma = sigma
        self.lam = {4: lam4, 6: lam6}
        self.level = level
        self._memo = {}
        self._pmemo = {}

    def act_le(self, le, mono):
        """x(le) . (mono . v) as a dict {monomial: int}."""
        key = (le, mono)
        out = self._memo.get(key)
        if out is not None:
            return out
        if not mono:
            mode = le >> 4
            if mode > 0:
                out = {}
            elif mode < 0:
                out = {(le,): 1}
            else:
                base = le & 15
                if base < 4:
                    out = {(le,): 1}
                elif base == 4 or base == 6:
                    lam = self.lam[base]
                    out = {(): lam} if lam else {}
                else:
                    out = {}
        elif le < 4 and le >= mono[0]:
            out = {(le,) + mono: 1}
        else:
            # x*head = head*x + [x, head]; push x toward the vacuum.
            head = mono[0]
            rest = mono[1:]
            acc = {}
            for m2, c2 in self.act_le(le, rest).items():
                for m3, c3 in self.act_le(head, m2).items():
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
                for m3, c3 in self.act_le(le2, rest).items():
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
            out = acc
        self._memo[key] = out
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
                for m2, c2 in self.act_le(le, m).items():
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
        property; memoized on (suffix, monomial) pairs.  Block bases pair
        their words here, so the suffixes are the basis words of the blocks
        below and every block shares their entries."""
        key = (m1, m2)
        val = self._pmemo.get(key)
        if val is not None:
            return val
        if not m1:
            val = 1 if not m2 else 0
        else:
            le = m1[0]
            dual = ((-(le >> 4)) << 4) + self.sigma[le & 15]
            rest = m1[1:]
            total = 0
            for m, c in self.act_le(dual, m2).items():
                s = self.pair_monos(rest, m)
                if s:
                    total += c * s
            val = total
        self._pmemo[key] = val
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


class UKernel:
    """Straightening in the universal enveloping algebra of the affine
    algebra.  Elements are dicts {(cexp, monomial): int} where cexp counts
    factors of the central element and monomials are weakly decreasing code
    tuples (any mode and base: nothing acts on a vacuum here)."""

    def __init__(self, bracket, form):
        self.bracket = bracket
        self.form = form
        self._memo = {}

    def mul_le(self, le, mono):
        """x(le) * mono, normal ordered; dict {(cexp, monomial): int}."""
        key = (le, mono)
        out = self._memo.get(key)
        if out is not None:
            return out
        if not mono:
            out = {(0, (le,)): 1}
        elif le >= mono[0]:
            out = {(0, (le,) + mono): 1}
        else:
            head = mono[0]
            rest = mono[1:]
            acc = {}
            for (dc2, m2), c2 in self.mul_le(le, rest).items():
                for (dc3, m3), c3 in self.mul_le(head, m2).items():
                    k2 = (dc2 + dc3, m3)
                    c = acc.get(k2, 0) + c2 * c3
                    if c:
                        acc[k2] = c
                    elif k2 in acc:
                        del acc[k2]
            i = le >> 4
            b1 = le & 15
            j = head >> 4
            b2 = head & 15
            for cf, k in self.bracket[b1][b2]:
                le2 = ((i + j) << 4) + k
                for (dc3, m3), c3 in self.mul_le(le2, rest).items():
                    k2 = (dc3, m3)
                    c = acc.get(k2, 0) + cf * c3
                    if c:
                        acc[k2] = c
                    elif k2 in acc:
                        del acc[k2]
            if i + j == 0:
                f = self.form[b1][b2]
                if f:
                    k2 = (1, rest)
                    c = acc.get(k2, 0) + i * f
                    if c:
                        acc[k2] = c
                    elif k2 in acc:
                        del acc[k2]
            out = acc
        self._memo[key] = out
        return out

    def mul_mono(self, m1, m2):
        """m1 * m2 normal ordered; dict {(cexp, monomial): int}."""
        out = {(0, m2): 1}
        for le in reversed(m1):
            nxt = {}
            for (dc, m), c in out.items():
                for (dc2, m2b), c2 in self.mul_le(le, m).items():
                    k2 = (dc + dc2, m2b)
                    cc = nxt.get(k2, 0) + c * c2
                    if cc:
                        nxt[k2] = cc
                    elif k2 in nxt:
                        del nxt[k2]
            out = nxt
        return out
