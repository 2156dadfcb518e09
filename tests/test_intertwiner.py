"""Truncated modules, tensor models, and the color intertwiner."""

from fractions import Fraction

import pytest

from affine_basis import affine
from affine_basis import intertwiner
from affine_basis.intertwiner import (
    EPS1,
    IntertwinerMap,
    TensorModule,
    build_w_ks,
    get_truncated,
    solve_w,
    sweep_projection_chain,
    verify_cross_model,
    verify_intertwiner,
    verify_projection_chain,
)
from affine_basis.partitions import A1Standard, ColoredPartition, enumerate_admissible
from affine_basis.pbw import HighestWeightSpec, VermaModule, GEN_C2


def P(a=(), b=(), c=()):
    return ColoredPartition.of(a=a, b=b, c=c)


SOURCE = get_truncated(HighestWeightSpec(0, 1, 0), 2)
TARGET = get_truncated(HighestWeightSpec(0, 0, 1), 2)


# ---------------------------------------------------------------------------
# truncated modules
# ---------------------------------------------------------------------------


def test_truncated_module_blocks():
    assert SOURCE.top_key() == (0, (1, 0))
    assert SOURCE.dim(SOURCE.top_key()) == 1
    keys = SOURCE.block_keys()
    assert keys == sorted(keys)
    assert all(SOURCE.dim(k) > 0 for k in keys)
    # degree-0 slice of the source has total dimension 4
    assert sum(SOURCE.dim(k) for k in keys if k[0] == 0) == 4
    assert sum(TARGET.dim(k) for k in TARGET.block_keys() if k[0] == 0) == 5


def test_coordinates_recover_basis_vectors():
    key = SOURCE.block_keys()[-1]
    basis = SOURCE.basis[key]
    for i, vec in enumerate(SOURCE.vectors[key]):
        coords = SOURCE.coordinates(key, vec)
        expected = [Fraction(int(j == i)) for j in range(len(basis))]
        assert coords == expected


def test_coordinates_reject_nonnull_vectors_in_empty_blocks():
    # x11(0)^2 on the top of the target module lands in an empty block
    # (weight too high); the zero vector passes, a fake nonzero one raises
    empty_key = (0, (9, 9))
    assert TARGET.dim(empty_key) == 0
    assert TARGET.coordinates(empty_key, {}) == []


def test_act_matrix_window_guard():
    with pytest.raises(ValueError):
        SOURCE.act_matrix(affine.encode(-3, 9), SOURCE.top_key())


def test_act_matrix_entries_match_kernel_action():
    le = affine.encode(-1, 0)
    key = SOURCE.top_key()
    tgt, rows = SOURCE.act_matrix(le, key)
    assert tgt == (1, (-1, 0))
    image = SOURCE.verma.kernel.act_le(le, SOURCE.basis[key][0])
    assert rows is not None
    coords = SOURCE.coordinates(tgt, image)
    assert [rows[r][0] for r in range(len(rows))] == coords
    # raising the top along the long root leaves the quotient: the image
    # block is empty at level 1, so the zero map has no rows
    tgt2, rows2 = SOURCE.act_matrix(affine.encode(-1, 9), key)
    assert tgt2 == (1, (3, 0))
    assert rows2 == [] and SOURCE.dim(tgt2) == 0


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------


def test_intertwiner_certificate_window_two():
    rep = verify_intertwiner(2)
    assert rep.ok
    assert rep.witness["top_killed"] is True
    assert rep.witness["commutes"] is True
    assert set(rep.witness["freedom"].values()) == {0}  # unique at every degree


def test_solve_w_is_deterministic_and_normalized():
    w1, r1 = solve_w(SOURCE, TARGET, 2)
    w2, r2 = solve_w(SOURCE, TARGET, 2)
    assert r1 == r2
    assert w1.blocks == w2.blocks
    assert w1.freedom == w2.freedom
    assert r1["consistent"] is True
    # normalization: the weight-(0,1) degree-0 block maps by the identity
    assert w1.blocks[(0, (0, 1))] == [[Fraction(1)]]
    # the source top vector is killed: its block is an all-zero dim x 1 matrix
    top = SOURCE.top_key()
    n_top = TARGET.dim(intertwiner._shift(top))
    assert w1.blocks[top] == [[Fraction(0)]] * n_top
    # every block is a plain dim(shift(key)) x dim(key) matrix
    assert set(w1.blocks) == set(SOURCE.block_keys())
    for key, mat in w1.blocks.items():
        assert isinstance(mat, list)
        assert len(mat) == TARGET.dim(intertwiner._shift(key))
        assert all(len(row) == SOURCE.dim(key) for row in mat)


def test_apply_block_shifts_by_eps1():
    w, _ = solve_w(SOURCE, TARGET, 2)
    key = (0, (0, 1))
    tgt, out = w.apply_block(key, [Fraction(3)])
    assert tgt == (0, (0 + EPS1[0], 1 + EPS1[1]))
    assert out == [Fraction(3)]
    # a block outside the source maps by zero into its shifted block
    assert w.apply_block((0, (9, 9)), [Fraction(1)]) == ((0, (10, 9)), [])


def test_commutation_check_rejects_every_single_entry_perturbation():
    # negative control: the post-hoc check must catch a wrong W.  Adding 1
    # to any one entry of any solved block breaks commutation somewhere.
    w, _ = solve_w(SOURCE, TARGET, 2)
    assert intertwiner._check_commutation(SOURCE, TARGET, w, 2)
    entries = [
        (key, r, c)
        for key, mat in w.blocks.items()
        for r, row in enumerate(mat)
        for c in range(len(row))
    ]
    assert entries
    for key, r, c in entries:
        blocks = {k: [list(row) for row in mat] for k, mat in w.blocks.items()}
        blocks[key][r][c] += 1
        bad = IntertwinerMap(SOURCE, TARGET, blocks, w.freedom)
        assert not intertwiner._check_commutation(SOURCE, TARGET, bad, 2), (key, r, c)


# ---------------------------------------------------------------------------
# tensor models
# ---------------------------------------------------------------------------


def test_tensor_vacuum_and_pairing_match_the_verma_engine():
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    tensor = TensorModule([m1], 2)
    verma = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    words = [
        (),
        (affine.encode(0, 3),),
        (affine.encode(-1, 9),),
        (affine.encode(-1, 9), affine.encode(-1, 0)),
        (affine.encode(0, 3), affine.encode(-2, 5)),
    ]
    for wi in words:
        for wj in words:
            a = verma.pair(verma.act_word(wi), verma.act_word(wj))
            b = tensor.pair(tensor.act_word(wi), tensor.act_word(wj))
            assert Fraction(a) == b, (wi, wj)


def test_tensor_action_window_overflow_raises():
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 1)
    tensor = TensorModule([m1], 1)
    v = tensor.act_word((affine.encode(-1, 0),))
    with pytest.raises(ValueError):
        tensor.act_le(affine.encode(-1, 0), v)


def test_levels_add_in_tensor_models():
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    tensor = TensorModule([m1, m1], 2)
    verma = VermaModule(HighestWeightSpec(0, 2, 0), gens=GEN_C2)
    word = (affine.encode(-1, 0),)
    a = verma.pair(verma.act_word(word), verma.act_word(word))
    b = tensor.pair(tensor.act_word(word), tensor.act_word(word))
    assert Fraction(a) == b


def test_w_ks_with_zero_slots_is_the_identity():
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    w, _ = solve_w(m1, get_truncated(HighestWeightSpec(0, 0, 1), 2), 2)
    tensor = TensorModule([m1], 2)
    vec = tensor.act_word((affine.encode(-1, 9),))
    apply0 = build_w_ks(w, 1, 0)
    assert apply0(vec) == vec


# ---------------------------------------------------------------------------
# projection chain and cross-model agreement
# ---------------------------------------------------------------------------


def test_projection_chain_pure_mode0():
    rep = verify_projection_chain(A1Standard(0, 1), P(c={0: 1}))
    assert rep.ok
    assert rep.witness["mu"] == "1"
    assert rep.witness["higher_killed"] == []


def test_projection_chain_annihilation_clause():
    # c0 = 1 inside k1 = 2: w_{2,2} must kill the vector (s = 2 > c0)
    rep = verify_projection_chain(A1Standard(0, 2), P(c={0: 1}))
    assert rep.ok
    assert rep.witness["higher_killed"] == [True]


def test_projection_chain_sweep_level_two():
    rep = sweep_projection_chain(A1Standard(1, 1), 2)
    assert rep.ok
    entries = rep.witness["partitions"]
    assert len(entries) == len(enumerate_admissible(A1Standard(1, 1), 2))
    assert all(e["ok"] for e in entries)
    assert all(e["mu"] not in (None, "0") for e in entries)


def test_projection_chain_sweep_solves_w_once(monkeypatch):
    kind = A1Standard(0, 2)
    pis = enumerate_admissible(kind, 2)
    direct = [verify_projection_chain(kind, pi) for pi in pis]  # one solve each
    calls = []
    real = intertwiner.solve_w

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(intertwiner, "solve_w", counting)
    rep = sweep_projection_chain(kind, 2)
    assert len(calls) == 1
    assert rep.ok
    assert rep.witness["partitions"] == [
        {"partition": pi.tag(), "ok": r.ok, "mu": r.witness["mu"]} for pi, r in zip(pis, direct)
    ]
    # the shared solution gives each partition the witness of its own window,
    # freedom included
    solved = real(*calls[0])
    for pi, r in zip(pis, direct):
        assert verify_projection_chain(kind, pi, None, solved).witness == r.witness


def test_cross_model_agreement():
    rep = verify_cross_model(A1Standard(1, 1), 2)
    assert rep.ok
    assert rep.witness["pairs_checked"] > 0
    assert rep.witness["mismatches"] == []
