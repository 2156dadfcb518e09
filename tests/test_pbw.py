"""Highest weight modules, block bases, quotient dimensions, straightening."""

from fractions import Fraction
import json
import random

import pytest

import oracles
from affine_basis import affine, linalg, pbw
from affine_basis.pbw import (
    GEN_A1,
    GEN_C2,
    HighestWeightSpec,
    ModuleVector,
    PBWMonomial,
    VermaModule,
    algebra_add,
    algebra_mul,
    straighten,
)


E1, H0, F1 = affine.encode(-1, 9), affine.encode(0, 6), affine.encode(-1, 0)


# ---------------------------------------------------------------------------
# graded dimensions against the lattice-character oracle
# ---------------------------------------------------------------------------


def test_long_root_vacuum_dims_match_lattice_character():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    assert module.dims_by_degree(6) == list(oracles.A1_LEVEL1_DIMS)
    for d in range(7):
        assert oracles.a1_level1_degree_dim(d) == oracles.A1_LEVEL1_DIMS[d]


def test_long_root_vacuum_blocks_match_partition_numbers():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    for d in range(6):
        for m in range(-d - 1, d + 2):
            dim = module.graded_dimension(d, (2 * m, 0))
            assert dim == oracles.a1_level1_block_dim(d, m), (d, m)


def test_degree_zero_slices_of_the_level_one_modules():
    for labels, total in (((1, 0, 0), 1), ((0, 1, 0), 4), ((0, 0, 1), 5)):
        module = VermaModule(HighestWeightSpec(*labels), gens=GEN_C2)
        assert module.dims_by_degree(0) == [total], labels


# ---------------------------------------------------------------------------
# block bases against the full Gram rank
# ---------------------------------------------------------------------------


def test_block_basis_agrees_with_full_gram_rank():
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    for key in module.block_support(2):
        bb = module.block_basis(*key)
        monos = module.pbw_monomials(*key)
        assert bb.rank == pbw.rank_int(module.kernel.gram(monos)), key
        assert bb.candidates == len(monos)
        assert set(bb.basis) <= set(monos)
        # the chosen Gram matrix is nonsingular (it is a true basis)
        if bb.rank:
            linalg.invert(bb.matrix)


def test_block_basis_is_cached_in_memory():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    assert module.block_basis(2, (0, 0)) is module.block_basis(2, (0, 0))


def test_zero_in_quotient_detects_the_level_bound():
    # at level 1 the square of the long-root raising mode is null, the
    # single application is not
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    one = module.vector((E1,))
    two = module.vector((E1, E1))
    assert not one.is_zero_verma() and not module.zero_in_quotient(one)
    assert not two.is_zero_verma() and module.zero_in_quotient(two)
    assert module.zero_in_quotient(two.scale(5))
    assert module.zero_in_quotient(module.vacuum().add(module.vacuum(), -1))


def test_pbw_monomials_enumeration():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    # degree-2 monomials at weight 0: e(-1)f(-1), h(-1)^2, h(-2), f(-1)e(-1)
    # normal order collapses the last to the first; enumeration is of
    # normal-ordered words only
    monos = module.pbw_monomials(2, (0, 0))
    assert (affine.encode(-1, 9), affine.encode(-1, 0)) in monos
    assert (affine.encode(-1, 6), affine.encode(-1, 6)) in monos
    assert (affine.encode(-2, 6),) in monos
    assert all(affine.is_normal_ordered(m) for m in monos)
    assert monos == sorted(monos, reverse=True)
    # empty block: no monomials can reach a raised weight at degree 0
    assert module.pbw_monomials(0, (2, 0)) == []


def test_vacuum_and_act_word():
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    v = module.vacuum()
    assert module.pair(v, v) == 1
    w1 = (affine.encode(-1, 9),)
    w2 = (affine.encode(0, 3), affine.encode(-1, 5))
    assert module.act_word(w1 + w2) == module.act_word(w1, module.act_word(w2))
    assert module.abs_weight(w1) == (1 + 2, 0)


def test_module_vector_block_and_validation():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    mixed = ModuleVector(module, {(E1,): 1, (F1,): 1})
    with pytest.raises(ValueError):
        mixed.block()
    assert module.vector((E1,)).block() == (1, (2, 0))
    assert ModuleVector(module, {}).block() is None
    with pytest.raises(ValueError):
        module.vector((affine.encode(1, 9),))  # not storable


def test_pbw_monomial_factors_and_tag():
    x0 = affine.encode(0, 3)
    m = PBWMonomial((x0, F1, F1, affine.encode(-2, 0)))
    assert m.factors() == [(0, 3, 1), (-1, 0, 2), (-2, 0, 1)]
    assert m.tag() == "x21'(0) x1'1'(-1)^2 x1'1'(-2)"
    assert m.degree == 4
    assert PBWMonomial(()).tag() == "1"
    with pytest.raises(ValueError):
        PBWMonomial((F1, x0))  # increasing codes
    with pytest.raises(ValueError):
        PBWMonomial((H0,))  # mode-0 Cartan factors are not storable


# ---------------------------------------------------------------------------
# straightening against the randomized-order oracle
# ---------------------------------------------------------------------------


def _oracle_structure():
    bracket = tuple(
        tuple(
            tuple(sorted((c, k) for k, c in oracles.bracket_coeffs(i, j).items()))
            for j in range(10)
        )
        for i in range(10)
    )
    form = tuple(tuple(oracles.form_value(i, j) for j in range(10)) for i in range(10))
    return bracket, form


def test_straighten_matches_random_order_oracle():
    structure = _oracle_structure()
    rng = random.Random(20240817)
    for trial in range(60):
        length = rng.randint(0, 5)
        word = tuple(
            affine.encode(rng.randint(-3, 3), rng.randrange(10)) for _ in range(length)
        )
        expected = straighten(word)
        for seed in (1, 2):
            got = oracles.straighten_random_order(
                word, structure, random.Random(seed * 1000 + trial)
            )
            assert got == expected, word
        for (dc, mono), coeff in expected.items():
            assert dc >= 0 and coeff
            assert all(mono[i] >= mono[i + 1] for i in range(len(mono) - 1))


def test_straighten_is_consistent_with_module_action():
    """Acting by a word equals acting by its straightened form, with the
    central exponent contributing level^dc."""
    rng = random.Random(99)
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    level = module.spec.level
    for _ in range(25):
        length = rng.randint(1, 4)
        word = tuple(
            affine.encode(rng.randint(-2, 1), rng.randrange(10)) for _ in range(length)
        )
        direct = module.act_word(word)
        total = {}
        for (dc, mono), coeff in straighten(word).items():
            part = module.kernel.act_word(mono, {(): 1})
            for m, c in part.items():
                cc = total.get(m, 0) + coeff * (level ** dc) * c
                if cc:
                    total[m] = cc
                else:
                    total.pop(m, None)
        assert direct.terms == total, word


def test_algebra_product_is_associative_and_ad_is_a_derivation():
    x = {(0, (affine.encode(1, 9),)): 1}
    y = {(0, (F1,)): 1}
    z = {(0, (affine.encode(0, 8),)): 1, (1, ()): 2}
    assert algebra_mul(algebra_mul(x, y), z) == algebra_mul(x, algebra_mul(y, z))
    t = {(0, (affine.encode(0, 8),)): 1}

    def ad(a):  # t*a - a*t, normal ordered
        return algebra_add(algebra_mul(t, a), algebra_mul(a, t), -1)

    left = ad(algebra_mul(x, y))
    right = algebra_add(algebra_mul(ad(x), y), algebra_mul(x, ad(y)))
    assert left == right


# ---------------------------------------------------------------------------
# the scan: topological order, zero-suffix rule, positivity guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "labels, gens, depth", [((0, 1, 0), GEN_C2, 3), ((1, 0, 0), GEN_A1, 5)]
)
def test_block_bases_do_not_depend_on_the_scan_order(labels, gens, depth):
    spec = HighestWeightSpec(*labels)
    support = VermaModule(spec, gens=gens).block_support(depth)
    # reverse order: most suffix blocks come after the blocks that need them
    fresh = VermaModule(spec, gens=gens)
    for key in sorted(support, reverse=True):
        bb = fresh.block_basis(*key)
        ref = support[key]
        assert (bb.basis, bb.matrix, bb.candidates) == (ref.basis, ref.matrix, ref.candidates), key


def test_zero_suffix_rule_decides_candidates_without_pairing():
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    module.block_support(2)
    assert module.skipped > 0
    assert module.scanned + module.skipped == sum(bb.candidates for bb in module._bases.values())
    # every monomial the scans recorded is zero against the final block bases
    for mono in module._zero:
        assert module.zero_in_quotient(module.vector(mono)), mono


def test_negative_minor_raises():
    # negative control: a zero-norm candidate that pairs nonzero with a kept
    # vector would make the form indefinite; the scan must refuse it
    spec, key = HighestWeightSpec(1, 0, 0), (2, (-2, 0))
    ref = VermaModule(spec, gens=GEN_A1).block_basis(*key)
    module = VermaModule(spec, gens=GEN_A1)
    monos = module.pbw_monomials(*key)
    kept = ref.basis[0]
    target = next(
        m for m in monos[monos.index(kept) + 1:]
        if m not in ref.basis and module.kernel.pair_monos(m, m) == 0
    )
    real = module.kernel.pair_monos

    def poisoned(m1, m2):
        if (m1, m2) == (kept, target):
            return 1
        return real(m1, m2)

    module.kernel.pair_monos = poisoned
    with pytest.raises(ArithmeticError):
        module.block_basis(*key)


def test_cached_blocks_do_not_seed_the_zero_set(tmp_path):
    spec, cache_dir = HighestWeightSpec(1, 0, 0), str(tmp_path)
    VermaModule(spec, gens=GEN_A1, cache_dir=cache_dir).block_support(3)
    warm = VermaModule(spec, gens=GEN_A1, cache_dir=cache_dir)
    warm.block_support(3)
    assert warm.cache.misses == 0
    assert warm.scanned == warm.skipped == 0 and not warm._zero
    fresh = VermaModule(spec, gens=GEN_A1)
    fresh.block_support(3)
    before = fresh.skipped
    key = (4, (-4, 0))
    a, b = fresh.block_basis(*key), warm.block_basis(*key)
    assert fresh.skipped > before
    assert warm.skipped == 0 and warm.scanned == b.candidates
    assert (a.basis, a.matrix) == (b.basis, b.matrix)


# ---------------------------------------------------------------------------
# disk cache round trips
# ---------------------------------------------------------------------------


def test_block_basis_disk_cache_roundtrip(tmp_path):
    cache_dir = str(tmp_path)
    spec = HighestWeightSpec(0, 1, 0)
    m1 = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
    cold = m1.block_basis(2, m1.lam_wt)
    assert m1.cache.misses > 0
    m2 = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
    warm = m2.block_basis(2, m2.lam_wt)
    assert m2.cache.hits > 0
    assert warm.basis == cold.basis
    assert warm.matrix == cold.matrix
    assert warm.rank == cold.rank and warm.candidates == cold.candidates


def test_corrupt_cache_entries_are_recomputed(tmp_path):
    cache_dir = str(tmp_path)
    spec = HighestWeightSpec(1, 0, 0)
    m1 = VermaModule(spec, gens=GEN_A1, cache_dir=cache_dir)
    cold = m1.block_basis(2, (0, 0))
    for path in tmp_path.glob("*.json"):
        path.write_text("{not json")
    m2 = VermaModule(spec, gens=GEN_A1, cache_dir=cache_dir)
    warm = m2.block_basis(2, (0, 0))
    assert m2.cache.misses > 0
    assert warm.basis == cold.basis and warm.matrix == cold.matrix


def test_singular_cached_gram_is_recomputed(tmp_path):
    # a well-formed entry whose Gram matrix is singular: the chosen vectors
    # it claims would be dependent, so it must not be trusted
    cache_dir = str(tmp_path)
    spec = HighestWeightSpec(0, 1, 0)
    m1 = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
    cold = m1.block_basis(2, m1.lam_wt)
    assert cold.rank >= 2
    (path,) = tmp_path.glob("*.json")
    good = json.loads(path.read_text())
    path.write_text(json.dumps({"chosen": [0, 1], "gram": [["1", "2"], ["2", "4"]]}))
    m2 = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
    warm = m2.block_basis(2, m2.lam_wt)
    assert m2.cache.misses == 1 and m2.cache.hits == 0
    assert warm.basis == cold.basis and warm.matrix == cold.matrix
    assert json.loads(path.read_text()) == good


@pytest.mark.parametrize(
    "entry",
    [
        {"chosen": [1, 0], "gram": [["1", "0"], ["0", "1"]]},  # not increasing
        {"chosen": [0, 10**6], "gram": [["1", "0"], ["0", "1"]]},  # out of range
        {"chosen": [0, 1], "gram": [["1", "1"], ["0", "1"]]},  # not symmetric
        {"chosen": [0], "gram": [["1/2"]]},  # not an integer
        {"chosen": [0], "gram": [["-1"]]},  # negative norm
        {"chosen": [0]},  # no Gram matrix
    ],
)
def test_malformed_cached_bases_are_rejected(entry):
    assert not pbw._valid_basis_entry(entry, 5)
    assert pbw._valid_basis_entry({"chosen": [0, 3], "gram": [["2", "1"], ["1", "1"]]}, 5)


def test_spec_validation():
    with pytest.raises(ValueError):
        HighestWeightSpec(-1, 0, 0)
    spec = HighestWeightSpec(2, 1, 1)
    assert spec.level == 4
    assert spec.weight == (2, 1)
    assert spec.as_tuple() == (2, 1, 1)
