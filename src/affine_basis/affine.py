"""Affine (loop) layer on top of the finite structure table.

A loop element x(n) = x tensor t^n is encoded as a single integer

    le = 16 * n + base_index        (base_index in 0..9)

so that integer comparison of codes is exactly the total order used for
normal-ordered monomials: x(n) > y(m) iff n > m, or n = m and x > y in the
finite order.  Decoding uses floor division, so negative modes work
transparently.  A code is *storable* (allowed as a factor of a normal-ordered
monomial acting on a highest weight vector) iff le < 4: every negative-mode
element, and at mode zero exactly the four negative root vectors
x1'1', x2'1', x2'2', x21' (indices 0..3).

The central extension enters only through brackets, which the pairing
kernel applies: [x(i), y(j)] = [x,y](i+j) + i * <x,y> * delta_{i+j,0} * c.

The color gradation splits the finite algebra by the pairing of weights with
the direction omega2 = eps1 + eps2 (values -1, 0, 1).  The top component
(value 1) is spanned by the three "colors" x11, x12, x22 and is commutative;
its loop span, together with the central element, is the subalgebra whose
highest weight orbits are the principal subspaces studied here.
"""

from .cartan import build_c2, inner, OMEGA2

BASE_MASK = 15
MODE_SHIFT = 4


def encode(mode, base):
    return (mode << MODE_SHIFT) + base


def decode(le):
    return (le >> MODE_SHIFT, le & BASE_MASK)


def storable(le):
    """True if le may appear in a normal-ordered monomial applied to a
    highest weight vector (negative mode, or mode 0 negative root vector)."""
    return le < 4


def degree_of(le):
    """Degree contributed to a monomial: minus the mode."""
    return -(le >> MODE_SHIFT)


def weight_of(le):
    return build_c2().weights[le & BASE_MASK]


def color_grade(base):
    """Pairing of the weight of b_base with the minuscule direction omega2;
    one of -1, 0, 1."""
    g = inner(build_c2().weights[base], OMEGA2)
    assert g.denominator == 1
    return int(g)


def grade_component(n):
    """Base indices with color grade n (n in {-1, 0, 1})."""
    return tuple(b for b in range(10) if color_grade(b) == n)


# the three colors: grade-1 component, listed in increasing basis order
COLOR_BASES = grade_component(1)


# ---------------------------------------------------------------------------
# words and monomials (raw tuple level; module semantics live in pbw)
# ---------------------------------------------------------------------------


def word_degree(word):
    return sum(degree_of(le) for le in word)


def word_weight(word):
    a = b = 0
    weights = build_c2().weights
    for le in word:
        w = weights[le & BASE_MASK]
        a += w[0]
        b += w[1]
    return (a, b)
