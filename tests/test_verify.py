"""Identity verifiers: derivation powers, translation, rank sweeps, and the
negative controls that prove the verifiers can fail."""

import json

import pytest

import oracles
from affine_basis import affine, cache, pbw, verify
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
            rep = verify_t_power(kind, pi)
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
    rep = verify_t_power(kind, P(c={1: 1}), broken)
    assert not rep.ok
    assert rep.witness["scalar"] is None
    # a-only partitions never touch the mutated entry, so they still pass
    rep2 = verify_t_power(kind, P(a={1: 1}), broken)
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

    def counting_get_json(self, key, check=None):
        loads.append(key)
        return get_json(self, key, check)

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
    vecs = [module.act_word(kind.monomial_word(pi)) for pi in family]
    gram = verify._family_gram(module, vecs)
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


# ---------------------------------------------------------------------------
# propagation and report plumbing
# ---------------------------------------------------------------------------


def test_icprop_sweep():
    for kind in (A1Standard(1, 1), A1Standard(0, 2), A1Standard(2, 0)):
        rep = verify_icprop(kind, 4)
        assert rep.ok
        assert rep.witness["violations"] == []


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
