"""Colored partitions and admissibility conditions.

A colored partition assigns to every nonnegative integer j three
frequencies (a_j, b_j, c_j): how many parts of size j carry each of the
three colors.  Only finitely many are nonzero.  Parts of size 0 are allowed
(they contribute factors at mode 0); the degree only counts j >= 1.

Two families of monomials are attached to a partition pi:

  * the long-root family, colors (a, b, c) -> (e, h, f) = (x11, h1, x1'1')
    at mode -j, used for modules of the long-root A1 subalgebra;
  * the color family, colors (a, b, c) -> (x11, x12, x22) at mode -j, whose
    span from the highest weight vector is the principal subspace of the
    bigger algebra.

The *literal* factor order of a monomial word matters in the first
(noncommutative) family and is part of the contract: part sizes decrease
left to right, and within one part size the factor order is f, h, e (for
the colors c, b, a).  Equivalently the word is weakly increasing in the
loop-code order, with all mode-0 factors rightmost.  This is exactly the
order in which a single mode-0 factor block f(0)^{c_0} can be split off on
the right.

Admissibility = difference conditions (four windows on adjacent part sizes,
bounded by the level k) + initial conditions (bounds on the smallest parts,
depending on the module kind).
"""

import functools

from . import affine
from .pbw import HighestWeightSpec, VermaModule, GEN_A1, GEN_COLORS

import json


def _freqs(pairs):
    """Normalize a {size: frequency} mapping to a sorted tuple of pairs."""
    if isinstance(pairs, dict):
        items = pairs.items()
    else:
        items = pairs
    out = tuple(sorted((int(j), int(f)) for j, f in items if f))
    for j, f in out:
        if j < 0 or f < 0:
            raise ValueError("part sizes and frequencies must be nonnegative")
    return out


class ColoredPartition:
    """The (size, frequency) pairs of each color, a, b and c, as sorted
    tuples of nonzero frequencies (see of); two partitions are equal, and
    hash alike, when their frequencies are."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a=(), b=(), c=()):
        self.a = a
        self.b = b
        self.c = c

    def __eq__(self, other):
        return (isinstance(other, ColoredPartition)
                and (self.a, self.b, self.c) == (other.a, other.b, other.c))

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    @classmethod
    def of(cls, a=(), b=(), c=()):
        return cls(a=_freqs(a), b=_freqs(b), c=_freqs(c))

    def a_at(self, j):
        for size, f in self.a:
            if size == j:
                return f
        return 0

    def b_at(self, j):
        for size, f in self.b:
            if size == j:
                return f
        return 0

    def c_at(self, j):
        for size, f in self.c:
            if size == j:
                return f
        return 0

    @property
    def max_part(self):
        sizes = [j for j, _ in self.a + self.b + self.c]
        return max(sizes) if sizes else 0

    @property
    def degree(self):
        return sum(j * f for j, f in self.a + self.b + self.c)

    def color_totals(self):
        return (
            sum(f for _, f in self.a),
            sum(f for _, f in self.b),
            sum(f for _, f in self.c),
        )

    def n_prime(self):
        """Total color-raising capacity: b parts count once, c parts twice."""
        ta, tb, tc = self.color_totals()
        return tb + 2 * tc

    def n_of(self):
        """Capacity left after splitting off the mode-0 block: n' - c_0."""
        return self.n_prime() - self.c_at(0)

    def split_c0(self):
        """(partition without its mode-0 c parts, c_0)."""
        c0 = self.c_at(0)
        rest = tuple((j, f) for j, f in self.c if j != 0)
        return ColoredPartition(a=self.a, b=self.b, c=rest), c0

    def sort_key(self):
        flat = []
        for j in range(self.max_part + 1):
            flat.append((self.c_at(j), self.b_at(j), self.a_at(j)))
        return (self.degree, tuple(flat))

    def to_dict(self):
        return {
            "a": {str(j): f for j, f in self.a},
            "b": {str(j): f for j, f in self.b},
            "c": {str(j): f for j, f in self.c},
            "degree": self.degree,
            "n": self.n_of(),
            "n_prime": self.n_prime(),
        }

    def tag(self):
        bits = []
        for color, pairs in (("a", self.a), ("b", self.b), ("c", self.c)):
            for j, f in pairs:
                bits.append("%s%d^%d" % (color, j, f) if f > 1 else "%s%d" % (color, j))
        return " ".join(bits) or "empty"


def _windows_hold(k, lo, hi):
    """The four difference windows at level k on adjacent part sizes
    (i, i+1), for the frequencies lo = (a_i, b_i, c_i) and hi at i+1."""
    (a_i, b_i, c_i), (a_n, b_n, c_n) = lo, hi
    return max(a_i + b_i + a_n, c_i + b_i + a_n, c_i + b_n + a_n, c_i + b_n + c_n) <= k


def satisfies_dc(pi, k):
    """Difference conditions at level k: the four windows on each adjacent
    pair of part sizes (i, i+1), all bounded by k."""
    freqs = [(pi.a_at(i), pi.b_at(i), pi.c_at(i)) for i in range(pi.max_part + 2)]
    return all(_windows_hold(k, lo, hi) for lo, hi in zip(freqs, freqs[1:]))


def satisfies_ic_a1(pi, k0, k1):
    """Initial conditions for the long-root modules labelled (k0, k1)."""
    return (
        pi.a_at(0) == 0
        and pi.b_at(0) == 0
        and pi.c_at(0) <= k1
        and pi.a_at(1) <= k0
    )


def satisfies_ic_c2fs(pi, k0, k1, k2):
    """Initial conditions for principal-subspace families labelled
    (k0, k1, k2)."""
    return (
        pi.a_at(0) == 0
        and pi.b_at(0) == 0
        and pi.c_at(0) == 0
        and pi.a_at(1) <= k0
        and pi.a_at(1) + pi.b_at(1) <= k0 + k1
        and pi.b_at(1) + pi.c_at(1) <= k0 + k1
    )


# ---------------------------------------------------------------------------
# module kinds
# ---------------------------------------------------------------------------

# color -> base index maps for the two monomial families: (c, b, a) -> the
# generator triples (f, h, e) and (x22, x12, x11)
A1_BASES = dict(zip("cba", GEN_A1))
COLOR_BASES_MAP = dict(zip("cba", GEN_COLORS))


def _literal_word(pi, bases):
    """Factor codes in the literal order: part sizes decreasing left to
    right; within one size the c, b, a factors in that order.  The result is
    weakly increasing in code order with mode-0 factors rightmost.  Built in
    one pass: the stored (size, frequency) runs, sorted by decreasing size
    and then by color c, b, a."""
    runs = sorted(
        (-j, rank, f, bases[color])
        for rank, (color, pairs) in enumerate((("c", pi.c), ("b", pi.b), ("a", pi.a)))
        for j, f in pairs
    )
    word = []
    for mode, _, f, base in runs:
        word.extend([affine.encode(mode, base)] * f)
    return tuple(word)


def long_root_word(pi):
    """The long-root monomial word of pi (colors a, b, c -> e, h, f)."""
    return _literal_word(pi, A1_BASES)


def color_word(pi):
    """The color monomial word of pi (colors a, b, c -> x11, x12, x22)."""
    return _literal_word(pi, COLOR_BASES_MAP)


def translated_color_word(pi):
    """The color word of pi with its mode-0 block as x21'(0) factors: the
    color word of pi without that block, then c_0 factors x21'(0)."""
    rest, c0 = pi.split_c0()
    return color_word(rest) + (affine.encode(0, 3),) * c0


class ModuleKind:
    """The shared part of a module kind: its labels k0, k1, ... (as_tuple),
    its `name`, its module's generator set `gens`, the color -> base map
    `bases` of its monomials and `satisfies_ic`.  Two kinds are equal, and
    hash alike, when their classes and labels are.  Its highest weight has
    those labels, so its level is their sum; labels of no highest weight (a
    negative one) raise ValueError when the kind is made."""

    def __eq__(self, other):
        return type(other) is type(self) and other.as_tuple() == self.as_tuple()

    def __hash__(self):
        return hash((type(self), self.as_tuple()))

    def __repr__(self):
        labels = ", ".join("k%d=%r" % pair for pair in enumerate(self.as_tuple()))
        return "%s(%s)" % (type(self).__name__, labels)

    @property
    def level(self):
        return sum(self.as_tuple())

    def spec(self):
        return HighestWeightSpec(*self.as_tuple())

    def admissible(self, pi):
        return satisfies_dc(pi, self.level) and self.satisfies_ic(pi)

    def monomial_word(self, pi):
        return _literal_word(pi, self.bases)

    def module(self, cache_dir=None):
        return VermaModule(self.spec(), gens=self.gens, cache_dir=cache_dir)

    def report_inputs(self, max_degree):
        """The inputs of a report on the admissible partitions to max_degree."""
        return {"kind": self.name, "labels": list(self.as_tuple()), "max_degree": max_degree}


class A1Standard(ModuleKind):
    """Level k0+k1 standard module of the long-root A1 subalgebra, labelled
    by (k0, k1); partitions are realized through e, h, f monomials."""

    name = "a1"
    gens = GEN_A1
    bases = A1_BASES

    def __init__(self, k0, k1):
        self.k0 = k0
        self.k1 = k1
        self.spec()

    def satisfies_ic(self, pi):
        return satisfies_ic_a1(pi, self.k0, self.k1)

    def as_tuple(self):
        return (self.k0, self.k1)


class C2FS(ModuleKind):
    """Principal subspace (orbit of the highest weight vector under the
    three commuting colors) of the level k0+k1+k2 module labelled
    (k0, k1, k2)."""

    name = "c2fs"
    gens = GEN_COLORS
    bases = COLOR_BASES_MAP

    def __init__(self, k0, k1, k2):
        self.k0 = k0
        self.k1 = k1
        self.k2 = k2
        self.spec()

    def satisfies_ic(self, pi):
        return satisfies_ic_c2fs(pi, self.k0, self.k1, self.k2)

    def as_tuple(self):
        return (self.k0, self.k1, self.k2)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_admissible(kind, max_degree):
    """Admissible colored partitions for the module kind, degree at most
    max_degree, deterministically ordered (by sort_key), as a fresh list:
    the partitions of _admissible(kind.level, max_degree) that satisfy the
    kind's initial conditions, which constrain only the finished partition."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative, got %d" % max_degree)
    return [pi for pi in _admissible(kind.level, max_degree) if kind.satisfies_ic(pi)]


@functools.lru_cache(maxsize=64)
def _admissible(k, max_degree):
    """Every colored partition of degree <= max_degree that satisfies the
    difference conditions at level k, ordered by sort_key, as one memoised
    tuple per (level, max_degree).  Generated size by size, j = 0, 1, ...,
    max_degree: the frequencies at size j are chosen within the level and
    the degree budget, and the four difference windows on sizes (j-1, j)
    are checked as soon as both are known; the window on the last size is
    checked against zeros.  This is the set satisfies_dc accepts among all
    colored partitions of degree <= max_degree: the windows on sizes above
    max_degree hold trivially, and each window bounds every single
    frequency by the level."""
    out = []

    def rec(j, budget, prev, acc):
        if j > max_degree:
            if _windows_hold(k, prev, (0, 0, 0)):
                out.append(ColoredPartition(*acc))
            return
        cap = k if j == 0 else min(k, budget // j)
        for aj in range(cap + 1):
            for bj in range(cap + 1):
                for cj in range(cap + 1):
                    spent = j * (aj + bj + cj)
                    if spent > budget:
                        continue
                    if j and not _windows_hold(k, prev, (aj, bj, cj)):
                        continue
                    rec(
                        j + 1,
                        budget - spent,
                        (aj, bj, cj),
                        (
                            acc[0] + ((j, aj),) if aj else acc[0],
                            acc[1] + ((j, bj),) if bj else acc[1],
                            acc[2] + ((j, cj),) if cj else acc[2],
                        ),
                    )

    rec(0, max_degree, (0, 0, 0), ((), (), ()))
    out.sort(key=ColoredPartition.sort_key)
    return tuple(out)


def ic_propagation(pi, kind):
    """Labels of the smaller standard module attached to the mode-0 block of
    an admissible partition: (k0, k1 - c_0, c_0).  Raises for non-admissible
    input or kinds without a mode-0 block."""
    if not isinstance(kind, A1Standard):
        raise ValueError("propagation is defined for long-root kinds")
    if not kind.admissible(pi):
        raise ValueError("partition is not admissible for %r" % (kind,))
    c0 = pi.c_at(0)
    return (kind.k0, kind.k1 - c0, c0)


def to_jsonl(partitions):
    return "\n".join(json.dumps(pi.to_dict(), sort_keys=True) for pi in partitions)
