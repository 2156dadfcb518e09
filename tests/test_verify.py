"""Identity verifiers: derivation powers, translation, rank sweeps, and the
negative controls that prove the verifiers can fail."""

from fractions import Fraction
import json
import operator

import pytest

import oracles
from conftest import installed_tracer
from affine_basis import affine, cache, cli, kernels, pbw, verify
from affine_basis import partitions as parts_mod
from affine_basis.cartan import X12
from affine_basis.partitions import (
    A1Standard,
    C2FS,
    ColoredPartition,
    enumerate_admissible,
)
from affine_basis.verify import (
    DerivationTable,
    StepReport,
    sweep_t_power,
    sweep_translation,
    t_apply,
    verify_c0_nonvanishing,
    verify_icprop,
    verify_independence,
    verify_spanning,
    verify_t_power,
    verify_translation,
)


def P(a=(), b=(), c=()):
    return ColoredPartition.of(a=a, b=b, c=c)


# ---------------------------------------------------------------------------
# derivation powers
# ---------------------------------------------------------------------------


def test_derivation_table_is_the_middle_color_bracket():
    table = DerivationTable()
    # the derivation sends f to a multiple of x21' and h to a multiple of x12
    assert {k for _, k in table.action[0]} == {3}
    assert {k for _, k in table.action[6]} == {8}
    # colors are killed (they commute with the middle color)
    for base in (5, 8, 9):
        assert table.action[base] == ()


def test_t_apply_leibniz_on_a_single_factor():
    table = DerivationTable()
    elem = {(0, (affine.encode(-1, 0),)): 1}
    out = t_apply(elem, table)
    (coeff, k), = table.action[0]
    assert out == {(0, (affine.encode(-1, k),)): coeff}


def test_t_power_scalars_match_the_sign_oracle():
    for kind in (A1Standard(1, 0), A1Standard(1, 1)):
        for pi in enumerate_admissible(kind, 3):
            rep = verify_t_power(pi)
            assert rep.ok, pi.tag()
            expected = oracles.t_power_scalar(pi)
            assert rep.witness["scalar"] == str(expected), pi.tag()
            assert rep.witness["next_power_vanishes"] is True


def test_t_power_sweep_pinned_scalars():
    rep = sweep_t_power(A1Standard(1, 0), 2)
    assert rep.ok
    got = [(e["partition"], e["scalar"]) for e in rep.witness["partitions"]]
    assert got == [
        ("empty", "1"),
        ("a1", "1"),
        ("b1", "-1"),
        ("c1", "-1"),
        ("a2", "1"),
        ("b2", "-1"),
        ("c2", "-1"),
        ("a1 c1", "-1"),
    ]


def test_mutated_derivation_table_fails_with_witness():
    kind = A1Standard(1, 0)
    # killing the f-replacement makes any c-part unconvertible
    broken = DerivationTable().mutate(0, ())
    rep = verify_t_power(P(c={1: 1}), broken)
    assert not rep.ok
    assert rep.witness["scalar"] is None
    # a-only partitions never touch the mutated entry, so they still pass
    rep2 = verify_t_power(P(a={1: 1}), broken)
    assert rep2.ok
    # sweeping catches the poisoned entry (only c-parts route through f)
    sweep = sweep_t_power(kind, 1, broken)
    assert not sweep.ok
    bad = [e for e in sweep.witness["partitions"] if not e["ok"]]
    assert {e["partition"] for e in bad} == {"c1"}
    # poisoning the h-entry instead breaks the b-part conversions
    broken_h = DerivationTable().mutate(6, ())
    sweep_h = sweep_t_power(kind, 1, broken_h)
    assert not sweep_h.ok
    bad_h = [e for e in sweep_h.witness["partitions"] if not e["ok"]]
    assert {e["partition"] for e in bad_h} == {"b1"}


def test_a_poisoned_table_fails_next_to_the_default_table(monkeypatch):
    # each table memoises the images of its own action: a poisoned copy of
    # the default table, made after the default has filled its memo, must
    # not read those images, nor the default table a poisoned one's
    kind = A1Standard(1, 0)
    monkeypatch.setattr(verify, "_TABLE", None)
    fresh = sweep_t_power(kind, 3)
    after = sweep_t_power(kind, 3, verify._default_table().mutate(0, ()))
    monkeypatch.setattr(verify, "_TABLE", None)
    before = sweep_t_power(kind, 3, DerivationTable().mutate(0, ()))
    default = sweep_t_power(kind, 3)
    assert fresh.ok and default.ok
    assert default.witness == fresh.witness
    assert not after.ok and not before.ok
    assert after.witness == before.witness


def test_table_images_are_the_leibniz_sum_of_straightened_words():
    # image(mono) against the Leibniz rule written out word by word, for
    # every monomial that the derivation powers of degree <= 3 reach
    table = DerivationTable()
    kind = A1Standard(1, 1)
    for pi in enumerate_admissible(kind, 3):
        elem = pbw.straighten(parts_mod.long_root_word(pi))
        for _ in range(pi.n_prime()):
            for _, mono in elem:
                expected = {}
                for pos, le in enumerate(mono):
                    for cf, b2 in table.action[le & 15]:
                        word = mono[:pos] + (affine.encode(le >> 4, b2),) + mono[pos + 1 :]
                        pbw.add_into(expected, pbw.straighten(word), cf)
                assert table.image(mono) == expected, (pi.tag(), mono)
            elem = t_apply(elem, table)


def test_integer_proportionality_matches_the_fraction_form():
    m1, m2, m3 = (affine.encode(-1, 0),), (affine.encode(-2, 0),), (affine.encode(-1, 1),)
    v = {m1: 2, m2: -4}
    cases = [
        ({m1: 3, m2: -6}, v),  # s = 3/2
        ({m1: -2, m2: 4}, v),  # s = -1
        ({}, v),  # s = 0
        ({m1: 3, m2: 6}, v),  # not proportional
        ({m1: 2, m2: -4, m3: 1}, v),  # one term too many
        ({m1: 1}, {}),  # nothing to read s off
        ({m1: Fraction(1, 3), m2: Fraction(-2, 3)}, {m1: Fraction(1, 2), m2: -1}),
        ({m1: Fraction(1, 3), m2: 1}, {m1: Fraction(1, 2), m2: -1}),
    ]
    for u, w in cases:
        got = verify._proportionality(u, w)
        assert got == oracles.proportionality_fraction(u, w, operator.not_), (u, w)
    assert verify._proportionality(*cases[0]) == Fraction(3, 2)
    assert verify._proportionality(*cases[3]) is None
    # integer vectors give an integer difference: no Fraction enters it
    diffs = []
    verify._proportionality({m1: 3, m2: -5}, v, lambda vec: diffs.append(vec) or not vec)
    assert diffs == [{m2: 2}] and type(diffs[0][m2]) is int


def test_integer_proportionality_in_the_quotient_matches_the_fraction_form():
    # translation's path: every pair of a raised long-root vector and a
    # color vector of the same block, in the quotient (zero_in_quotient)
    raiser = (affine.encode(0, X12),)
    outcomes = set()
    for kind in (A1Standard(1, 1), A1Standard(0, 2)):
        module = pbw.VermaModule(kind.spec(), gens=pbw.GEN_C2)

        def block(vec):
            m = next(iter(vec))
            return affine.word_degree(m), module.abs_weight(m)

        pis = enumerate_admissible(kind, 3)
        us = [module.act_word(raiser * pi.n_of() + kind.monomial_word(pi)) for pi in pis]
        cands = [module.act_word(parts_mod.translated_color_word(pi)) for pi in pis]
        for u in us:
            for cand in cands:
                if block(u) != block(cand):
                    continue
                got = verify._proportionality(u, cand, module.zero_in_quotient)
                want = oracles.proportionality_fraction(u, cand, module.zero_in_quotient)
                assert got == want
                outcomes.add(got is None)
    assert outcomes == {False, True}


def test_translation_kill_check_applies_one_more_raiser():
    # the kill check tests raiser . u, the vector one raiser above the one
    # translation compared; it must equal the raised word from the vacuum
    raiser = (affine.encode(0, X12),)
    for labels in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        kind = A1Standard(*labels)
        module = pbw.VermaModule(kind.spec(), gens=pbw.GEN_C2)
        seen = []
        zero = module.zero_in_quotient
        module.zero_in_quotient = lambda vec: seen.append(vec) or zero(vec)
        for pi in enumerate_admissible(kind, 3):
            seen.clear()
            assert verify_translation(kind, pi, module=module).ok, pi.tag()
            word = kind.monomial_word(pi)
            assert seen[-1] == module.act_word(raiser * (pi.n_of() + 1) + word), pi.tag()


# ---------------------------------------------------------------------------
# translation identity and the mode-0 string
# ---------------------------------------------------------------------------


def test_translation_for_the_pure_mode0_partition():
    kind = A1Standard(0, 1)
    rep = verify_translation(kind, P(c={0: 1}))
    assert rep.ok
    assert rep.witness["mu"] == "1"
    assert rep.witness["killed"] is True


def test_translation_sweep_pinned_witnesses():
    rep = sweep_translation(A1Standard(1, 0), 2)
    assert rep.ok
    mus = [e["mu"] for e in rep.witness["partitions"]]
    assert mus == ["1", "1", "-1", "-2", "1", "-1", "-2", "-2"]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "disk-cache"])
def test_c0_nonvanishing_norm_strings(cached, tmp_path, monkeypatch):
    # the monomial spans its block, so its norm decides and no block basis
    # is built: a cache directory is neither looked up nor created
    loads = []
    get_json = cache.GramCache.get_json

    def counting_get_json(self, key, parse):
        loads.append(key)
        return get_json(self, key, parse)

    monkeypatch.setattr(cache.GramCache, "get_json", counting_get_json)
    for labels, pinned in (((1, 0), ["1", "0"]), ((0, 1), ["1", "1", "0"]), ((0, 2), None)):
        cache_dir = tmp_path / ("%d%d" % labels)
        rep = verify_c0_nonvanishing(A1Standard(*labels), str(cache_dir) if cached else None)
        norms = rep.witness["norms"]
        assert rep.ok and len(norms) == labels[1] + 2, labels
        assert norms[-1] == "0" and all(x != "0" for x in norms[:-1])
        if pinned is not None:
            assert norms == pinned
        assert not cache_dir.exists()
    assert loads == []


def test_c0_fails_on_a_shifted_form_and_raises_on_a_negated_one(monkeypatch):
    # negative controls: one added to every pairing makes the norm of
    # x21'(0)^(k1+1) nonzero, which the step must report; a negated form
    # gives negative norms, which positivity rules out (zero_in_quotient)
    pair = pbw.VermaModule.pair
    monkeypatch.setattr(pbw.VermaModule, "pair", lambda self, u, v: pair(self, u, v) + 1)
    rep = verify_c0_nonvanishing(A1Standard(1, 0))
    assert rep.ok is False
    assert rep.witness["norms"] == ["2", "1"]
    monkeypatch.setattr(pbw.VermaModule, "pair", lambda self, u, v: -pair(self, u, v))
    with pytest.raises(ArithmeticError, match="norm -1$"):
        verify_c0_nonvanishing(A1Standard(1, 0))


def test_translation_creates_no_cache(tmp_path):
    # zero_in_quotient is a norm test; translation builds no block basis
    rep = sweep_translation(A1Standard(0, 1), 1, str(tmp_path / "c"))
    assert rep.ok
    assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# independence / spanning sweeps
# ---------------------------------------------------------------------------


def test_independence_and_spanning_level_one():
    kind = A1Standard(1, 0)
    rep_i = verify_independence(kind, 3)
    assert rep_i.ok
    assert all(e["count"] == e["rank"] for e in rep_i.witness["blocks"])
    rep_s = verify_spanning(kind, 3)
    assert rep_s.ok
    for e in rep_s.witness["blocks"]:
        assert e["admissible_rank"] == e["dimension"]
    # the block table covers every admissible partition
    assert sum(e["count"] for e in rep_i.witness["blocks"]) == len(
        enumerate_admissible(kind, 3)
    )


def test_independence_creates_no_cache(tmp_path):
    # the admissible vectors are paired directly; no block basis is cached
    rep = verify_independence(A1Standard(0, 1), 2, str(tmp_path / "c"))
    assert rep.ok
    assert not (tmp_path / "c").exists()


def test_principal_subspace_independence():
    rep = verify_independence(C2FS(1, 0, 0), 3)
    assert rep.ok


@pytest.mark.parametrize(
    "kind",
    [A1Standard(1, 0), A1Standard(1, 1), A1Standard(0, 2), C2FS(1, 0, 0), C2FS(0, 1, 1)],
    ids=lambda kind: "%s%s" % (kind.name, kind.as_tuple()),
)
def test_family_gram_equals_the_gram_of_the_vectors(kind):
    # entry (i, j) pairs the word of member i with the vector of member j;
    # the oracle pairs the two vectors.  Each family is a whole degree, so
    # the entries across blocks (zero) are compared too
    module = kind.module()
    by_degree = {}
    for pi in enumerate_admissible(kind, 4):
        by_degree.setdefault(pi.degree, []).append(kind.monomial_word(pi))
    for words in by_degree.values():
        vecs = [module.act_word(word) for word in words]
        assert verify._family_gram(module, words, vecs) == oracles.gram(module.pair, vecs)


def test_traced_kernel_calls_of_the_degree_four_basis_steps(monkeypatch):
    # a family Gram entry pairs a word with a vector, the derivation's
    # image of each monomial is memoised on its table, and translation's
    # kill check raises the vector it holds: pairing two expanded vectors,
    # straightening a replaced word again or expanding the kill vector
    # from the vacuum reads as more calls here
    monkeypatch.setattr(verify, "_TABLE", None)
    tracer = installed_tracer()
    try:
        for labels in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            kind = A1Standard(*labels)
            for step in (verify_independence, verify_spanning, sweep_t_power, sweep_translation):
                assert step(kind, 4).ok, (step.__name__, labels)
    finally:
        tracer.uninstall()
    assert [tracer.calls("pbw.straighten"), tracer.calls("pbw.pair")] == [2022, 590]


def test_dc_violator_creates_a_rank_deficit():
    kind = A1Standard(1, 0)
    module = kind.module()
    violator = P(b={1: 1}, c={1: 1})
    assert not kind.admissible(violator)

    def block_of(pi):
        word = kind.monomial_word(pi)
        return affine.word_degree(word), module.abs_weight(word)

    key = block_of(violator)
    admissible = enumerate_admissible(kind, 2)
    block_pis = [pi for pi in admissible if block_of(pi) == key]
    assert block_pis  # the violator's block is populated by admissible vectors
    # a member of another block pairs to zero with the rest, so it lies in
    # no dependent subfamily: the extraction must shrink it away
    other = next(pi for pi in admissible if block_of(pi) != key)
    family = [other] + block_pis + [violator]
    words = [kind.monomial_word(pi) for pi in family]
    vecs = [module.act_word(word) for word in words]
    gram = verify._family_gram(module, words, vecs)
    rank = pbw.rank_int([[int(x) for x in row] for row in gram])
    assert rank == len(family) - 1  # deficit of exactly the appended vector
    tags = verify._minimal_dependent(gram, family)
    assert tags  # a concrete dependent subfamily is extracted
    assert violator.tag() in tags and other.tag() not in tags

    def sub_rank(idx):
        return pbw.rank_int([[gram[i][j] for j in idx] for i in idx])

    index = {pi.tag(): i for i, pi in enumerate(family)}
    subset = [index[t] for t in tags]
    assert sub_rank(subset) < len(subset)
    # minimal: dropping any one member leaves a family of full Gram rank
    for i in subset:
        rest = [j for j in subset if j != i]
        assert sub_rank(rest) == len(rest)


def test_independence_fails_on_an_appended_dc_violator(monkeypatch):
    # negative control: a difference-condition violator appended to the
    # admissible family (as criterion 9 builds one) is dependent on its
    # block, and the witness names a dependent subfamily that holds it
    kind = A1Standard(1, 0)
    violator = P(b={1: 1}, c={1: 1})
    real = parts_mod.enumerate_admissible
    monkeypatch.setattr(
        parts_mod, "enumerate_admissible", lambda kind, d: real(kind, d) + [violator]
    )
    rep = verify_independence(kind, 2)
    assert rep.ok is False
    failed = [e for e in rep.witness["blocks"] if e["rank"] != e["count"]]
    assert len(failed) == 1 and failed[0]["rank"] == failed[0]["count"] - 1
    assert violator.tag() in failed[0]["dependent_subset"]


def test_spanning_fails_without_one_admissible_partition(monkeypatch):
    # negative control: the admissible vectors are a basis, so dropping
    # one leaves its block one short, and the witness names the deficit
    kind = A1Standard(1, 0)
    real = parts_mod.enumerate_admissible
    dropped = real(kind, 2)[-1]

    def without(kind, d):
        return [pi for pi in real(kind, d) if pi != dropped]

    monkeypatch.setattr(parts_mod, "enumerate_admissible", without)
    rep = verify_spanning(kind, 2)
    assert rep.ok is False
    failed = [e for e in rep.witness["blocks"] if "deficit" in e]
    word = kind.monomial_word(dropped)
    assert [(e["degree"], e["deficit"]) for e in failed] == [(affine.word_degree(word), 1)]
    assert failed[0]["weight"] == list(kind.module().abs_weight(word))


def test_a_negated_form_fails_independence_and_exits_one(monkeypatch, capsys):
    # negative control for positivity: a negated contravariant form has the
    # same Gram ranks, so only the sign of the leading minors tells it from
    # the true one; the rank test raises and the CLI reports a failed claim
    pair_mono = kernels.VermaKernel.pair_mono
    monkeypatch.setattr(
        kernels.VermaKernel, "pair_mono", lambda self, mono, vec: -pair_mono(self, mono, vec)
    )
    for kind in (A1Standard(1, 0), A1Standard(1, 1), C2FS(0, 1, 0)):
        with pytest.raises(ArithmeticError):
            verify_independence(kind, 3)
    argv = ["verify", "independence", "--k0", "1", "--k1", "1", "--max-degree", "3"]
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# propagation and report plumbing
# ---------------------------------------------------------------------------


def test_icprop_sweep():
    for kind in (A1Standard(1, 1), A1Standard(0, 2), A1Standard(2, 0)):
        rep = verify_icprop(kind, 4)
        assert rep.ok
        assert rep.witness["violations"] == []


def test_icprop_fails_on_swapped_labels(monkeypatch):
    # negative control: labels (k0, c0, k1 - c0) in place of
    # (k0, k1 - c0, c0) send the c0 = 0 partitions of degree 2 outside the
    # admissible families, and the witness names each with its labels
    real = parts_mod.ic_propagation

    def swapped(pi, kind):
        k0, rest, c0 = real(pi, kind)
        return (k0, c0, rest)

    monkeypatch.setattr(parts_mod, "ic_propagation", swapped)
    rep = verify_icprop(A1Standard(1, 1), 2)
    assert rep.ok is False
    assert rep.witness["violations"] == [
        {"partition": tag, "target": [1, 0, 1]} for tag in ("a1 b1", "b1^2", "b1 c1", "c1^2")
    ]


def test_step_report_json_roundtrip():
    rep = StepReport(step="demo", inputs={"x": 1}, ok=True, witness={"y": [2]})
    data = json.loads(rep.to_json())
    assert data == {
        "step": "demo",
        "inputs": {"x": 1},
        "ok": True,
        "witness": {"y": [2]},
        "seconds": 0.0,
    }
