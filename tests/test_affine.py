"""Loop-code encoding, affine brackets with central terms, and word helpers."""

import itertools

import oracles
from affine_basis import affine
from affine_basis.cartan import TAGS, build_c2


TABLE = build_c2()
MODES = range(-3, 4)


def test_encode_decode_roundtrip():
    for mode in range(-5, 6):
        for base in range(10):
            le = affine.encode(mode, base)
            assert oracles.decode(le) == (mode, base)
            assert affine.degree_of(le) == -mode


def test_code_order_is_mode_then_base():
    codes = [affine.encode(m, b) for m in MODES for b in range(10)]
    decoded = sorted(oracles.decode(le) for le in codes)
    assert sorted(codes) == [affine.encode(m, b) for m, b in decoded]


def test_storable_characterization():
    for mode in MODES:
        for base in range(10):
            le = affine.encode(mode, base)
            expected = mode < 0 or (mode == 0 and base <= 3)
            assert affine.storable(le) == expected, (mode, base)


def test_weight_and_tag():
    le = affine.encode(-2, 9)
    assert affine.weight_of(le) == (2, 0)
    assert oracles.tag_of(le, TAGS) == "x11(-2)"
    assert oracles.tag_of(affine.encode(0, 3), TAGS) == "x21'(0)"


def _table_bracket(b1, b2):
    return {k: c for c, k in TABLE.bracket[b1][b2]}


def _form(b1, b2):
    return TABLE.form[b1][b2]


def _bracket_map(le1, le2):
    """The loop bracket over the package's structure table."""
    return oracles.loop_bracket(le1, le2, _table_bracket, _form)


def test_loop_bracket_antisymmetry_exhaustive():
    for b1, b2 in itertools.product(range(10), repeat=2):
        for i, j in itertools.product((-2, -1, 0, 1, 2), repeat=2):
            m1, c1 = _bracket_map(affine.encode(i, b1), affine.encode(j, b2))
            m2, c2 = _bracket_map(affine.encode(j, b2), affine.encode(i, b1))
            assert m1 == {k: -v for k, v in m2.items()}, (b1, b2, i, j)
            assert c1 == -c2, (b1, b2, i, j)


def test_loop_bracket_matches_finite_table():
    # the loop bracket over the package's table and codes against the one
    # over the matrix oracle's commutators and trace form
    for b1, b2 in itertools.product(range(10), repeat=2):
        for i, j in itertools.product((-2, 0, 3), repeat=2):
            m, central = _bracket_map(affine.encode(i, b1), affine.encode(j, b2))
            expected = {
                affine.encode(i + j, k): c for k, c in oracles.bracket_coeffs(b1, b2).items()
            }
            assert m == expected
            if i + j == 0:
                assert central == i * oracles.form_value(b1, b2)
            else:
                assert central == 0


def _ad(le1, vec):
    """Apply [le1, -] to a dict {le: coeff} + central coeff pair."""
    terms, central = vec
    out = {}
    cent = 0
    for le2, c in terms.items():
        m, cc = _bracket_map(le1, le2)
        for k, v in m.items():
            out[k] = out.get(k, 0) + c * v
        cent += c * cc
    return {k: v for k, v in out.items() if v}, cent + 0 * central


def test_affine_jacobi_with_central_terms():
    """Cyclic Jacobi for loop elements; the central element is central, so
    central contributions only enter at the last bracket."""
    modes = (-1, 0, 1)
    for b1, b2, b3 in itertools.product(range(10), repeat=3):
        for i, j, k in itertools.product(modes, repeat=3):
            x, y, z = (
                affine.encode(i, b1),
                affine.encode(j, b2),
                affine.encode(k, b3),
            )
            total = {}
            cent = 0
            for a, rest in ((x, (y, z)), (y, (z, x)), (z, (x, y))):
                inner_terms, _ = _bracket_map(*rest)
                m, c = _ad(a, (inner_terms, 0))
                for t, v in m.items():
                    total[t] = total.get(t, 0) + v
                cent += c
            assert not {t: v for t, v in total.items() if v}, (b1, b2, b3, i, j, k)
            assert cent == 0, (b1, b2, b3, i, j, k)


def test_color_gradation():
    assert affine.COLOR_BASES == (5, 8, 9)
    assert affine.grade_component(0) == (3, 4, 6, 7)
    assert affine.grade_component(-1) == (0, 1, 2)
    grades = {b: affine.color_grade(b) for b in range(10)}
    assert set(grades.values()) == {-1, 0, 1}


def test_colors_commute_at_all_modes():
    for b1, b2 in itertools.product(affine.COLOR_BASES, repeat=2):
        for i, j in itertools.product(range(-4, 5), repeat=2):
            terms, central = _bracket_map(affine.encode(i, b1), affine.encode(j, b2))
            assert not terms and central == 0, (b1, b2, i, j)


def test_word_helpers():
    word = (affine.encode(0, 3), affine.encode(-1, 9), affine.encode(-2, 9))
    assert affine.word_degree(word) == 3
    assert affine.word_weight(word) == (-1 + 2 + 2, 1 + 0 + 0)
    # normal order is weakly decreasing codes: mode-0 factors leftmost
    assert oracles.is_normal_ordered(word)
    assert not oracles.is_normal_ordered(tuple(reversed(word)))
    assert oracles.is_normal_ordered(())
    # a positive-mode factor is never storable
    assert not oracles.is_normal_ordered((affine.encode(1, 0),))
