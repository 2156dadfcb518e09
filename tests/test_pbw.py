"""Highest weight modules, block bases, quotient dimensions, straightening."""

import dataclasses
from fractions import Fraction
import json
import random

import pytest

import oracles
from affine_basis import affine, cache, cli, linalg, pbw
from affine_basis.partitions import A1Standard, C2FS
from affine_basis.pbw import (
    GEN_A1,
    GEN_C2,
    GEN_COLORS,
    HighestWeightSpec,
    VermaModule,
    add_into,
    straighten,
)


E1, F1 = affine.encode(-1, 9), affine.encode(-1, 0)


# ---------------------------------------------------------------------------
# graded dimensions against the lattice-character oracle
# ---------------------------------------------------------------------------


def test_long_root_vacuum_dims_match_lattice_character():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    assert oracles.dims_by_degree(module, 6) == list(oracles.A1_LEVEL1_DIMS)
    for d in range(7):
        assert oracles.a1_level1_degree_dim(d) == oracles.A1_LEVEL1_DIMS[d]


def test_long_root_vacuum_blocks_match_partition_numbers():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    for d in range(6):
        for m in range(-d - 1, d + 2):
            dim = module.block_basis(d, (2 * m, 0)).rank
            assert dim == oracles.a1_level1_block_dim(d, m), (d, m)


def test_degree_zero_slices_of_the_level_one_modules():
    for labels, total in (((1, 0, 0), 1), ((0, 1, 0), 4), ((0, 0, 1), 5)):
        module = VermaModule(HighestWeightSpec(*labels), gens=GEN_C2)
        assert oracles.dims_by_degree(module, 0) == [total], labels


# ---------------------------------------------------------------------------
# block bases against the full Gram rank
# ---------------------------------------------------------------------------


def _oracle_monomials(module, key):
    return oracles.pbw_monomials(module.gens, module.table.weights, module.lam_wt, *key)


def test_block_basis_agrees_with_full_gram_rank():
    # every block up to degree 2 that holds a PBW monomial, with weights in
    # the box around the support, reached by the closure or not: the basis
    # rank is the Gram rank of all the block's monomials
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    support = module.block_support(2)
    assert all(abs(w1) <= 3 and abs(w2) <= 3 for _, (w1, w2) in support)
    checked = unreached = 0
    for d in range(3):
        for w1 in range(-3, 4):
            for w2 in range(-3, 4):
                key = (d, (w1, w2))
                monos = _oracle_monomials(module, key)
                if not monos:
                    continue
                bb = module.block_basis(*key)
                full = pbw.rank_int(oracles.gram(module.kernel.pair_monos, monos))
                assert bb.rank == full, key
                checked += 1
                unreached += key not in support
                # each kept word's vector is a combination of the block's
                # monomials, and the stored Gram matrix is their pairing
                for i, vec in enumerate(bb.vectors):
                    assert set(vec) <= set(monos), key
                    for j, word in enumerate(bb.basis):
                        assert bb.matrix[j][i] == module.kernel.pair_mono(word, vec)
                # the chosen Gram matrix is nonsingular (it is a true basis)
                if bb.rank:
                    linalg.invert(bb.matrix)
    assert checked > len(support) and unreached > 0


@pytest.mark.parametrize("labels", [(0, 1, 0), (0, 0, 1)])
def test_block_dimensions_are_weyl_invariant(labels):
    # an independent check on the Gram ranks: each degree slice is a
    # finite-dimensional sp4-module, so dim(d, w) = dim(d, s.w) for the
    # 8 signed permutations s of (w1, w2)
    support = VermaModule(HighestWeightSpec(*labels), gens=GEN_C2).block_support(3)
    dims = {key: bb.rank for key, bb in support.items()}
    assert oracles.weyl_violations(dims) == []
    # negative control: dropping one vector from one block is seen
    key = max(dims)
    dims[key] -= 1
    assert oracles.weyl_violations(dims)


def test_long_root_block_dimensions_off_their_reflection_are_refused(monkeypatch, capsys):
    # the a1 modules are symmetric under the long-root reflection
    # (w1, w2) -> (-w1, w2) only, not under all of W(C2)
    dims = {key: bb.rank for key, bb in A1Standard(1, 0).module().block_support(5).items()}
    assert oracles.weyl_violations(dims)
    assert all(dims.get((d, (-w1, w2)), 0) == n for (d, (w1, w2)), n in dims.items())
    # negative control: a scan poisoned to drop one word of block (2, (2, 0))
    # of a1 (1, 0) breaks the reflection, so dims and spanning exit 1
    spec, key = HighestWeightSpec(1, 0, 0), (2, (2, 0))
    real_scan = VermaModule._scan

    def poisoned(self, k):
        bb = real_scan(self, k)
        if self.spec == spec and self.gens == GEN_A1 and k == key:
            bb = dataclasses.replace(
                bb,
                basis=bb.basis[:-1],
                matrix=[row[:-1] for row in bb.matrix[:-1]],
                vectors=bb.vectors[:-1],
            )
        return bb

    monkeypatch.setattr(VermaModule, "_scan", poisoned)
    monkeypatch.delenv("AFFINE_BASIS_CACHE", raising=False)
    with pytest.raises(ArithmeticError, match="not Weyl-invariant"):
        A1Standard(1, 0).module().block_support(2)
    for verb in (["dims"], ["verify", "spanning"]):
        argv = verb + ["--kind", "a1", "--k0", "1", "--k1", "0", "--max-degree", "3", "--quiet"]
        assert cli.main(argv) == 1
        assert "not Weyl-invariant" in capsys.readouterr().err


def test_color_modules_take_no_weyl_guard(monkeypatch):
    # the three colors commute, so their modules have no Weyl symmetry:
    # C2FS(0, 1, 0) breaks both W(C2) and the long-root reflection, and
    # its dimensions are accepted
    dims = {key: bb.rank for key, bb in C2FS(0, 1, 0).module().block_support(3).items()}
    assert oracles.weyl_violations(dims)
    assert any(dims.get((d, (-w1, w2)), 0) != n for (d, (w1, w2)), n in dims.items())
    monkeypatch.delenv("AFFINE_BASIS_CACHE", raising=False)
    argv = ["dims", "--kind", "c2fs", "--k0", "0", "--k1", "1", "--max-degree", "3", "--quiet"]
    assert cli.main(argv) == 0


def test_block_basis_is_cached_in_memory():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    assert module.block_basis(2, (0, 0)) is module.block_basis(2, (0, 0))


def test_zero_in_quotient_detects_the_level_bound():
    # at level 1 the square of the long-root raising mode is null, the
    # single application is not
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    one = module.act_word((E1,))
    two = module.act_word((E1, E1))
    assert one == {(E1,): 1} and not module.zero_in_quotient(one)
    assert two == {(E1, E1): 1} and module.zero_in_quotient(two)
    assert module.zero_in_quotient({(E1, E1): 5})
    assert module.zero_in_quotient(add_into(module.vacuum(), module.vacuum(), -1))


@pytest.mark.parametrize(
    "labels", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1)]
)
def test_zero_in_quotient_agrees_with_the_radical_test(labels):
    # the norm test against pairing with every PBW monomial of the block,
    # which needs neither positivity nor a block basis, on random words of
    # degree <= 3 (raising factors included, so some vectors vanish)
    module = VermaModule(HighestWeightSpec(*labels), gens=GEN_C2)
    rng = random.Random(sum(d * 10**i for i, d in enumerate(labels)))
    counts = {True: 0, False: 0}
    while sum(counts.values()) < 60:
        word = tuple(
            affine.encode(rng.randint(-2, 1), rng.randrange(10))
            for _ in range(rng.randint(1, 4))
        )
        if not 0 <= affine.word_degree(word) <= 3:
            continue
        vec = module.act_word(word)
        if not vec:
            continue
        zero = module.zero_in_quotient(vec)
        assert zero == oracles.zero_by_monomials(module, vec), word
        counts[zero] += 1
    assert counts[True] and counts[False], counts


def test_a_negative_norm_raises():
    # negative control: a pairing that makes a norm negative contradicts
    # positivity, and zero_in_quotient must refuse it
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    vec = module.act_word((E1,))
    real = module.kernel.pair_mono
    module.kernel.pair_mono = lambda word, v: -real(word, v)
    with pytest.raises(ArithmeticError):
        module.zero_in_quotient(vec)
    # translation hands it vectors with Fraction coefficients; the message
    # must carry the exact norm, not a truncation of it
    half = {m: Fraction(c, 2) for m, c in vec.items()}
    norm = module.pair(half, half)
    assert norm < 0 and norm.denominator > 1
    with pytest.raises(ArithmeticError, match="norm %s$" % norm):
        module.zero_in_quotient(half)


def test_pbw_monomials_enumeration():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    # degree-2 monomials at weight 0: e(-1)f(-1), h(-1)^2, h(-2), f(-1)e(-1)
    # normal order collapses the last to the first; enumeration is of
    # normal-ordered words only
    monos = _oracle_monomials(module, (2, (0, 0)))
    assert (affine.encode(-1, 9), affine.encode(-1, 0)) in monos
    assert (affine.encode(-1, 6), affine.encode(-1, 6)) in monos
    assert (affine.encode(-2, 6),) in monos
    assert all(oracles.is_normal_ordered(m) for m in monos)
    assert monos == sorted(monos, reverse=True)
    # empty block: no monomials can reach a raised weight at degree 0
    assert _oracle_monomials(module, (0, (2, 0))) == []


def test_vacuum_and_act_word():
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    v = module.vacuum()
    assert module.pair(v, v) == 1
    w1 = (affine.encode(-1, 9),)
    w2 = (affine.encode(0, 3), affine.encode(-1, 5))
    assert module.act_word(w1 + w2) == module.act_word(w1, module.act_word(w2))
    assert module.abs_weight(w1) == (1 + 2, 0)


def test_zero_in_quotient_checks_homogeneity():
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    with pytest.raises(ValueError):
        module.zero_in_quotient({(E1,): 1, (F1,): 1})  # blocks (1, (2, 0)), (1, (-2, 0))
    assert module.zero_in_quotient({})


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
    words = []
    for trial in range(60):
        length = rng.randint(0, 5)
        words.append(
            tuple(affine.encode(rng.randint(-3, 3), rng.randrange(10)) for _ in range(length))
        )
    # two words whose straightening cancels a product term and a bracket
    # term (the zero-coefficient branches of UKernel.mul_le)
    words.append((affine.encode(0, 8), affine.encode(1, 1), affine.encode(1, 3)))
    words.append((affine.encode(-1, 1), affine.encode(-1, 3), affine.encode(-1, 8)))
    for trial, word in enumerate(words):
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
        assert direct == total, word


def algebra_mul(a, b):
    """Product of two enveloping-algebra elements, straightened."""
    out = {}
    for (dc1, m1), c1 in a.items():
        for (dc2, m2), c2 in b.items():
            for (dc3, m3), c3 in pbw.ukernel().mul_mono(m1, m2).items():
                add_into(out, {(dc1 + dc2 + dc3, m3): c1 * c2 * c3})
    return out


def test_algebra_product_is_associative_and_ad_is_a_derivation():
    x = {(0, (affine.encode(1, 9),)): 1}
    y = {(0, (F1,)): 1}
    z = {(0, (affine.encode(0, 8),)): 1, (1, ()): 2}
    assert algebra_mul(algebra_mul(x, y), z) == algebra_mul(x, algebra_mul(y, z))
    t = {(0, (affine.encode(0, 8),)): 1}

    def ad(a):  # t*a - a*t, normal ordered
        return add_into(algebra_mul(t, a), algebra_mul(a, t), -1)

    left = ad(algebra_mul(x, y))
    right = add_into(algebra_mul(ad(x), y), algebra_mul(x, ad(y)))
    assert left == right


# ---------------------------------------------------------------------------
# the closure scan: direct calls, positivity guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "labels, gens, depth", [((0, 1, 0), GEN_C2, 3), ((1, 0, 0), GEN_A1, 5)]
)
def test_block_bases_do_not_depend_on_the_scan_order(labels, gens, depth):
    spec = HighestWeightSpec(*labels)
    module = VermaModule(spec, gens=gens)
    support = module.block_support(depth)
    # block_support builds reached blocks only, and a reached block has a
    # candidate from the nonzero block that reached it
    assert all(bb.candidates for bb in module._bases.values())
    # reverse order: the deepest direct call closes its degree, building
    # every block the closure builds
    fresh = VermaModule(spec, gens=gens)
    keys = sorted(support, reverse=True)
    assert keys[0][0] == depth
    fresh.block_basis(*keys[0])
    assert fresh._closed == depth and set(fresh._bases) == set(module._bases)
    for key in keys:
        bb = fresh.block_basis(*key)
        ref = support[key]
        assert (bb.basis, bb.matrix, bb.candidates) == (ref.basis, ref.matrix, ref.candidates), key


@pytest.mark.parametrize(
    "labels, gens, depth",
    [
        ((0, 1, 0), GEN_C2, 3),
        ((0, 0, 1), GEN_C2, 3),
        ((1, 0, 0), GEN_A1, 5),
        ((2, 0, 0), GEN_COLORS, 4),
    ],
)
def test_increasing_words_keep_what_the_full_closure_scan_keeps(labels, gens, depth):
    # the scan takes only the candidates (x,) + b with b empty or x <= b[0],
    # and block_support pushes only the steps that give one; the unpruned
    # scan over every (x,) + b must keep the same words with the same Gram
    # matrices, and reach no nonzero block that block_support left out
    module = VermaModule(HighestWeightSpec(*labels), gens=gens)
    support = module.block_support(depth)
    reached = set(support)
    for d, (w1, w2) in support:
        for mode in range(d - depth, 1):
            for base in module.gens:
                if 16 * mode + base < 4:
                    x1, x2 = module.table.weights[base]
                    reached.add((d - mode, (w1 + x1, w2 + x2)))
    skipped = 0
    for key in sorted(reached):
        words, gram, minors = oracles.closure_scan_reference(module, key)
        bb = support.get(key)
        if bb is None:
            assert words == [], key
            continue
        assert (list(bb.basis), bb.matrix, bb.rank) == (words, gram, len(words)), key
        increasing = [w for w, _ in minors if len(w) < 2 or w[0] <= w[1]]
        assert bb.candidates == len(increasing), key
        # every candidate the scan skips is rejected by the full scan's keep
        # test: its bordered minor against the words kept before it is zero
        for word, minor in minors:
            if len(word) >= 2 and word[0] > word[1]:
                assert minor == 0, (key, word)
                skipped += 1
    assert skipped and len(reached) > len(support)


def test_generators_must_be_closed_under_the_bracket():
    # the increasing-word scan needs every [x, y] among the generators:
    # [e, f] = h (base 6) is missing from (f, e)
    with pytest.raises(ValueError, match="not closed"):
        VermaModule(HighestWeightSpec(1, 0, 0), gens=(0, 9))
    for gens in (GEN_C2, GEN_A1, GEN_COLORS):
        VermaModule(HighestWeightSpec(1, 0, 0), gens=gens)


def test_a_failed_closure_is_not_taken_as_closed():
    # a closure that raises part way leaves later blocks unbuilt; a direct
    # call must then run the closure again instead of scanning a block
    # whose predecessors it skipped
    spec = HighestWeightSpec(0, 1, 0)
    module = VermaModule(spec, gens=GEN_C2)
    module.block_support(1)
    poisoned_key, later = (2, module.lam_wt), (3, module.lam_wt)
    real = module._scan

    def poisoned(key):
        if key == poisoned_key:
            raise RuntimeError("poisoned scan")
        return real(key)

    module._scan = poisoned
    with pytest.raises(RuntimeError):
        module.block_support(3)
    del module._scan
    assert module._closed == 1 and later not in module._bases
    got = module.block_basis(*later)
    ref = VermaModule(spec, gens=GEN_C2).block_basis(*later)
    assert ref.rank > 0
    assert (got.basis, got.matrix, got.candidates) == (ref.basis, ref.matrix, ref.candidates)


def test_negative_minor_raises():
    # negative control: a zero candidate that pairs nonzero with a kept
    # word would make the form indefinite; the scan must refuse it
    spec, key = HighestWeightSpec(0, 1, 0), (2, (0, 3))
    module = VermaModule(spec, gens=GEN_C2)
    ref = module.block_basis(*key)
    words = [w for w, _, _ in module._candidates(key)]
    vectors = {w: module.kernel.act_word((x,), parent) for w, x, parent in module._candidates(key)}
    kept = ref.basis[0]
    target = next(
        w for w in words[words.index(kept) + 1:]
        if w not in ref.basis and vectors[w] and module.kernel.pair_mono(w, vectors[w]) == 0
    )
    module = VermaModule(spec, gens=GEN_C2)
    real = module.kernel.pair_mono

    def poisoned(word, vec):
        if word == kept and vec == vectors[target]:
            return 1
        return real(word, vec)

    module.kernel.pair_mono = poisoned
    with pytest.raises(ArithmeticError):
        module.block_basis(*key)


def test_unreached_blocks_are_empty():
    # a block with PBW monomials that no storable step reaches from a
    # nonzero block is empty, with no candidates
    module = VermaModule(HighestWeightSpec(1, 0, 0), gens=GEN_A1)
    # at level 1, e(-1)^2 kills the vacuum, so nothing reaches e(-1)^3
    key = (3, (6, 0))
    assert _oracle_monomials(module, key) == [(E1,) * 3]
    assert module.block_basis(2, (4, 0)).rank == 0
    bb = module.block_basis(*key)
    assert bb.rank == bb.candidates == 0 and bb.basis == ()


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
    # every block keeps the Bareiss factor of its Gram matrix, built by the
    # scan's keep test (cold) or by the entry check (warm: every block was
    # read from the cache)
    cold_blocks, warm_blocks = m1.block_support(2), m2.block_support(2)
    assert m2.cache.misses == 0
    assert cold_blocks.keys() == warm_blocks.keys()
    for key, blk in cold_blocks.items():
        assert warm_blocks[key].factor == blk.factor == linalg.gram_factor(blk.matrix), key


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
    key = (2, m1.lam_wt)
    cold = m1.block_basis(*key)
    assert cold.rank >= 2
    path = tmp_path / (m1._cache_key(key, [w for w, _, _ in m1._candidates(key)]) + ".json")
    good = json.loads(path.read_text())
    path.write_text(json.dumps({"chosen": [0, 1], "gram": [["1", "2"], ["2", "4"]]}))
    m2 = VermaModule(spec, gens=GEN_C2, cache_dir=cache_dir)
    warm = m2.block_basis(*key)
    # every block below is read back; only the poisoned entry misses
    assert m2.cache.misses == 1 and m2.cache.hits == m1.cache.misses - 1
    assert warm.basis == cold.basis and warm.matrix == cold.matrix
    assert json.loads(path.read_text()) == good


def test_cache_entries_of_another_tag_or_candidate_list_are_never_used(tmp_path, monkeypatch):
    # negative control: a valid-looking entry that keeps one vector of a
    # rank >= 2 block, stored under the old entry tag for the same candidate
    # words, or under the current tag for other candidate lists, must never
    # be read for the block
    spec, key = HighestWeightSpec(0, 1, 0), (2, (1, 0))
    ref = VermaModule(spec, gens=GEN_C2)
    expected = ref.block_basis(*key)
    assert expected.rank >= 2
    words = [w for w, _, _ in ref._candidates(key)]
    bogus = {"chosen": [0], "gram": [[str(expected.matrix[0][0])]]}
    assert pbw._valid_basis_entry(bogus, len(words))
    keys = [ref._cache_key(key, other) for other in (words[::-1], words[:-1], words + words[:1])]
    monkeypatch.setattr(cache, "BLOCK_TAG", "basis")
    keys.append(ref._cache_key(key, words))
    monkeypatch.undo()
    assert ref._cache_key(key, words) not in keys
    for k in keys:
        (tmp_path / (k + ".json")).write_text(json.dumps(bogus))
    module = VermaModule(spec, gens=GEN_C2, cache_dir=str(tmp_path))
    got = module.block_basis(*key)
    assert (got.basis, got.matrix) == (expected.basis, expected.matrix)
    assert module.cache.hits == 0
    for k in keys:
        assert json.loads((tmp_path / (k + ".json")).read_text()) == bogus


@pytest.mark.parametrize(
    "entry",
    [
        {"chosen": [1, 0], "gram": [["1", "0"], ["0", "1"]]},  # not increasing
        {"chosen": [0, 10**6], "gram": [["1", "0"], ["0", "1"]]},  # out of range
        {"chosen": [0, 1], "gram": [["1", "1"], ["0", "1"]]},  # not symmetric
        {"chosen": [0], "gram": [["1/2"]]},  # not an integer
        {"chosen": [0], "gram": [["-1"]]},  # negative norm
        {"chosen": [0]},  # no Gram matrix
        {"chosen": [0, 1], "gram": [["1", "1"], ["1", "1"]]},  # singular
        {"chosen": [0, 1], "gram": [["1", "2"], ["2", "1"]]},  # indefinite
        {"chosen": 1, "gram": []},  # chosen is not a list
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
