"""Colored partitions: normalization, admissibility, enumeration, kinds."""

import json

import pytest

import oracles
from affine_basis import affine
from affine_basis.partitions import (
    A1_BASES,
    A1Standard,
    C2FS,
    COLOR_BASES_MAP,
    ColoredPartition,
    _literal_word,
    enumerate_admissible,
    ic_propagation,
    satisfies_dc,
    satisfies_ic_a1,
    satisfies_ic_c2fs,
    to_jsonl,
)
from affine_basis.pbw import GEN_A1, GEN_COLORS, HighestWeightSpec


def P(a=(), b=(), c=()):
    return ColoredPartition.of(a=a, b=b, c=c)


def colored(max_degree, freq_cap):
    """Every colored partition of the direct-search oracle, as records."""
    return [ColoredPartition(a=a, b=b, c=c) for a, b, c in oracles.brute_force_colored(max_degree, freq_cap)]


def _freqs_of(pi):
    return {(color, j): f for color, pairs in (("a", pi.a), ("b", pi.b), ("c", pi.c)) for j, f in pairs}


# ---------------------------------------------------------------------------
# the partition record itself
# ---------------------------------------------------------------------------


def test_normalization_sorts_and_drops_zero_frequencies():
    pi = P(a={3: 1, 1: 2, 2: 0}, c=[(0, 1)])
    assert pi.a == ((1, 2), (3, 1))
    assert pi.c == ((0, 1),)
    assert pi.a_at(1) == 2 and pi.a_at(2) == 0 and pi.a_at(3) == 1
    assert pi.c_at(0) == 1
    with pytest.raises(ValueError):
        P(a={1: -1})
    with pytest.raises(ValueError):
        P(b={-1: 1})


def test_degree_max_part_and_totals():
    pi = P(a={2: 1}, b={1: 3}, c={0: 2, 1: 1})
    assert pi.degree == 2 + 3 + 1  # size-0 parts carry no degree
    assert pi.max_part == 2
    assert pi.color_totals() == (1, 3, 3)
    assert pi.n_prime() == 3 + 2 * 3
    assert pi.n_of() == pi.n_prime() - 2
    assert P().degree == 0 and P().max_part == 0 and P().n_prime() == 0


def test_split_c0():
    pi = P(a={1: 1}, c={0: 2, 2: 1})
    rest, c0 = pi.split_c0()
    assert c0 == 2
    assert rest == P(a={1: 1}, c={2: 1})
    assert P().split_c0() == (P(), 0)


def test_capacity_vanishes_only_without_b_and_c_parts():
    for pi in colored(4, 2):
        expect_zero = not pi.b and not pi.c
        assert (pi.n_prime() == 0) == expect_zero
        assert (pi.n_of() == 0) == expect_zero
        # a mode-0 c part retains one unit of capacity after the split
        assert pi.n_of() == pi.n_prime() - pi.c_at(0)


def test_tag_and_jsonl():
    pi = P(a={1: 1}, c={2: 3})
    assert pi.tag() == "a1 c2^3"
    assert P().tag() == "empty"
    text = to_jsonl([P(), pi])
    lines = text.splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[1])
    assert rec["degree"] == 7
    assert rec["a"] == {"1": 1} and rec["c"] == {"2": 3}
    assert rec["n_prime"] == 6 and rec["n"] == 6


def test_sort_key_orders_by_degree_first():
    pis = enumerate_admissible(A1Standard(1, 1), 3)
    degrees = [pi.degree for pi in pis]
    assert degrees == sorted(degrees)
    assert pis == sorted(pis, key=ColoredPartition.sort_key)


# ---------------------------------------------------------------------------
# difference and initial conditions
# ---------------------------------------------------------------------------


def test_difference_conditions_hand_cases():
    k = 1
    assert satisfies_dc(P(), k)
    assert satisfies_dc(P(a={1: 1}, c={1: 1}), k)          # a1 c1
    assert not satisfies_dc(P(a={1: 1}, b={1: 1}), k)      # a_i + b_i window
    assert not satisfies_dc(P(a={1: 2}), k)                # a_i + a_i window? no:
    # a1^2 fails through a_i + b_i + a_{i+1} at i=1 only if... check both
    assert not satisfies_dc(P(a={1: 1, 2: 1}), k)          # a_{i}+a_{i+1}
    assert not satisfies_dc(P(b={1: 1}, c={1: 1}), k)      # c_i+b_i window
    assert not satisfies_dc(P(c={0: 1, 1: 1}), k)          # c_i+b_{i+1}+c_{i+1}
    assert satisfies_dc(P(b={1: 1}, c={2: 1}), k)          # gap of one size is fine?
    # c2 b1: window i=1: c1+b2+c2 = 0; c_i+b_i at 1: 0+1; a2? zero; fine
    assert satisfies_dc(P(a={1: 1}, b={2: 1}), 2)
    assert not satisfies_dc(P(a={1: 2}, b={1: 1}), 2)      # 2+1 > 2


def test_difference_conditions_match_text_oracle():
    for level in (1, 2):
        for pi in colored(4, level + 1):
            assert satisfies_dc(pi, level) == oracles.check_dc_text(_freqs_of(pi), level), (
                level,
                pi,
            )


def test_initial_conditions():
    assert satisfies_ic_a1(P(), 1, 0)
    assert not satisfies_ic_a1(P(a={0: 1}), 1, 1)   # mode-0 a part
    assert not satisfies_ic_a1(P(b={0: 1}), 1, 1)   # mode-0 b part
    assert satisfies_ic_a1(P(c={0: 1}), 1, 1)
    assert not satisfies_ic_a1(P(c={0: 2}), 1, 1)   # c_0 > k1
    assert not satisfies_ic_a1(P(a={1: 2}), 1, 0)   # a_1 > k0
    assert satisfies_ic_c2fs(P(a={1: 1}, b={1: 1}), 1, 1, 0)
    assert not satisfies_ic_c2fs(P(c={0: 1}), 1, 1, 0)       # no mode-0 parts
    assert not satisfies_ic_c2fs(P(a={1: 2}), 1, 1, 0)        # a_1 > k0
    assert not satisfies_ic_c2fs(P(a={1: 1}, b={1: 1}), 1, 0, 1)  # a1+b1 > k0+k1
    assert not satisfies_ic_c2fs(P(b={1: 1}, c={1: 1}), 1, 0, 1)  # b1+c1 > k0+k1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_matches_brute_force():
    # the direct search over every colored partition within the level,
    # filtered by the difference conditions read from their text and by the
    # kind's initial conditions, gives the same list in the same order
    for kind in (A1Standard(1, 0), A1Standard(0, 2), A1Standard(1, 2), C2FS(0, 1, 1), C2FS(2, 0, 1)):
        expected = sorted(
            (
                pi
                for pi in colored(4, kind.level)
                if oracles.check_dc_text(_freqs_of(pi), kind.level) and kind.satisfies_ic(pi)
            ),
            key=ColoredPartition.sort_key,
        )
        assert enumerate_admissible(kind, 4) == expected, kind


def test_enumeration_has_no_duplicates():
    pis = enumerate_admissible(A1Standard(1, 1), 5)
    assert len(pis) == len(set(pis)) > 0


def test_admissible_hand_lists_for_the_level_one_vacuum_kind():
    kind = A1Standard(1, 0)
    by_degree = {}
    for pi in enumerate_admissible(kind, 2):
        by_degree.setdefault(pi.degree, set()).add(pi.tag())
    assert by_degree[0] == {"empty"}
    assert by_degree[1] == {"a1", "b1", "c1"}
    assert by_degree[2] == {"a2", "b2", "c2", "a1 c1"}


def test_admissible_counts_match_module_dimensions():
    """The count of admissible partitions per degree equals the graded
    dimension of the corresponding module slice (levels 1 and 2)."""
    for k0, k1, max_degree in ((1, 0, 5), (0, 1, 4), (1, 1, 3), (2, 0, 3), (0, 2, 3)):
        kind = A1Standard(k0, k1)
        counts = [0] * (max_degree + 1)
        for pi in enumerate_admissible(kind, max_degree):
            counts[pi.degree] += 1
        module = kind.module()
        assert counts == module.dims_by_degree(max_degree), (k0, k1)


def test_admissible_counts_level_one_match_the_lattice_oracle():
    kind = A1Standard(1, 0)
    counts = [0] * 7
    for pi in enumerate_admissible(kind, 6):
        counts[pi.degree] += 1
    assert counts == list(oracles.A1_LEVEL1_DIMS)


# ---------------------------------------------------------------------------
# kinds, words, propagation
# ---------------------------------------------------------------------------


def test_kind_records():
    kind = A1Standard(1, 1)
    assert kind.level == 2
    assert kind.spec() == HighestWeightSpec(1, 1, 0)
    assert kind.as_tuple() == (1, 1)
    assert kind.module().gens == tuple(sorted(GEN_A1))
    sub = C2FS(1, 0, 1)
    assert sub.level == 2
    assert sub.spec() == HighestWeightSpec(1, 0, 1)
    assert sub.module().gens == tuple(sorted(GEN_COLORS))


def test_literal_word_order_contract():
    pi = P(a={2: 1, 1: 1}, b={1: 1}, c={0: 1, 1: 1})
    word = _literal_word(pi, A1_BASES)
    # weakly increasing codes, mode-0 factors rightmost
    assert all(word[i] <= word[i + 1] for i in range(len(word) - 1))
    modes = [oracles.decode(le)[0] for le in word]
    assert modes == sorted(modes)
    assert modes[-1] == 0
    # sizes decrease left to right; within a size the color order is c, b, a
    decoded = [oracles.decode(le) for le in word]
    assert decoded == [
        (-2, A1_BASES["a"]),
        (-1, A1_BASES["c"]),
        (-1, A1_BASES["b"]),
        (-1, A1_BASES["a"]),
        (0, A1_BASES["c"]),
    ]
    cword = _literal_word(pi, COLOR_BASES_MAP)
    assert [oracles.decode(le)[1] for le in cword] == [
        COLOR_BASES_MAP["a"],
        COLOR_BASES_MAP["c"],
        COLOR_BASES_MAP["b"],
        COLOR_BASES_MAP["a"],
        COLOR_BASES_MAP["c"],
    ]
    assert affine.word_degree(word) == pi.degree


def test_literal_word_matches_the_per_size_reference():
    # every colored partition of degree <= 5 with frequencies <= 2, in both
    # monomial families: the one-pass sort gives the per-size loop's word
    pis = colored(5, 2)
    assert len(pis) > 1000
    for pi in pis:
        for bases in (A1_BASES, COLOR_BASES_MAP):
            word = [oracles.decode(le) for le in _literal_word(pi, bases)]
            assert word == oracles.literal_word_reference(pi, bases), (pi, bases)


def test_monomial_word_degree_always_matches():
    kind = A1Standard(1, 1)
    for pi in enumerate_admissible(kind, 3):
        assert affine.word_degree(kind.monomial_word(pi)) == pi.degree


def test_ic_propagation_labels():
    kind = A1Standard(1, 1)
    assert ic_propagation(P(), kind) == (1, 1, 0)
    assert ic_propagation(P(c={0: 1}), kind) == (1, 0, 1)
    for pi in enumerate_admissible(kind, 4):
        k0, k1_new, c0 = ic_propagation(pi, kind)
        assert k0 == kind.k0
        assert k1_new == kind.k1 - pi.c_at(0)
        assert c0 == pi.c_at(0)
        assert k1_new >= 0 and c0 >= 0


def test_ic_propagation_rejects_bad_input():
    with pytest.raises(ValueError):
        ic_propagation(P(), C2FS(1, 0, 0))
    with pytest.raises(ValueError):
        ic_propagation(P(a={1: 5}), A1Standard(1, 0))  # not admissible
