"""Truncated modules, tensor models, and the color intertwiner."""

from fractions import Fraction
import math
import random

import pytest

import oracles
from conftest import installed_tracer, perturb_solve_w
from affine_basis import affine
from affine_basis import cli
from affine_basis import intertwiner
from affine_basis import linalg
from affine_basis.cartan import X22
from affine_basis.intertwiner import (
    IntertwinerMap,
    TensorModule,
    TruncatedModule,
    build_w_ks,
    get_truncated,
    solve_w,
    sweep_projection_chain,
    verify_cross_model,
    verify_intertwiner,
    verify_projection_chain,
)
from affine_basis.partitions import A1Standard, C2FS, ColoredPartition, enumerate_admissible
from affine_basis.pbw import BlockBasis, HighestWeightSpec, VermaModule, GEN_A1, GEN_C2


def P(a=(), b=(), c=()):
    return ColoredPartition.of(a=a, b=b, c=c)


# private window-2 models, outside get_truncated's store: a test that asks
# the store for a deeper window closes its shared models deeper, never these
SOURCE = TruncatedModule(HighestWeightSpec(0, 1, 0), 2)
TARGET = TruncatedModule(HighestWeightSpec(0, 0, 1), 2)


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
    # integer numerators over the block's denominator: each basis vector
    # has unit coordinates, the zero vector zero ones, and the denominator
    # is the Gram determinant
    dens = set()
    for key in SOURCE.block_keys():
        blk = SOURCE.blocks[key]
        den = blk.factor[1][-1]
        assert den == abs(oracles.det_fraction(blk.matrix))
        dens.add(den)
        for i, vec in enumerate(blk.vectors):
            coords = SOURCE.coordinates(key, vec)
            assert all(isinstance(x, int) for x in coords)
            assert coords == [den * int(j == i) for j in range(SOURCE.dim(key))]
        assert SOURCE.coordinates(key, {}) == [0] * SOURCE.dim(key)
    assert max(dens) > 1  # some block is not unimodular


def test_scan_rows_give_the_coordinates_of_rejected_candidates(monkeypatch):
    # every candidate a scan rejected, on both level-1 models at depth 4:
    # its row u, back-substituted on the first m = len(u) rows of the
    # block's factor, solves G_m x = D_m p exactly, p its pairings with the
    # m words kept before it, and gives the coordinates that pairing the
    # candidate's vector and solving on the whole factor (coordinates) gives
    monkeypatch.delenv("AFFINE_BASIS_CACHE", raising=False)
    checked = 0
    for labels in ((0, 1, 0), (0, 0, 1)):
        model = TruncatedModule(HighestWeightSpec(*labels), 4)
        pair = model.verma.kernel.pair_mono
        for key, blk in model.blocks.items():
            cols, minors = blk.factor
            for word, u in blk.rejected.items():
                m = len(u)
                vec = model.verma.act_word(word)
                x = linalg.back_substitute(cols, minors, u)
                p = [pair(b, vec) for b in blk.basis[:m]]
                gram = [row[:m] for row in blk.matrix[:m]]
                assert [sum(g * v for g, v in zip(row, x)) for row in gram] == [
                    minors[m] * t for t in p
                ], (labels, word)
                full = model.coordinates(key, vec)
                assert [Fraction(v, minors[m]) for v in x] + [0] * (blk.rank - m) == [
                    Fraction(v, minors[-1]) for v in full
                ], (labels, word)
                checked += 1
    assert checked == 825


def test_a_warm_cache_model_gives_the_cold_action_matrices(monkeypatch, tmp_path):
    # a block loaded from the disk cache has no scan rows, so its rejected
    # candidates are paired and solved by coordinates: every color action
    # matrix at depth 3 equals that of a model scanned cold
    monkeypatch.delenv("AFFINE_BASIS_CACHE", raising=False)
    for labels in ((0, 1, 0), (0, 0, 1)):
        spec = HighestWeightSpec(*labels)
        cold = TruncatedModule(spec, 3)
        TruncatedModule(spec, 3, str(tmp_path))
        warm = TruncatedModule(spec, 3, str(tmp_path))
        assert any(blk.rejected for blk in cold.blocks.values())
        assert [key for key, blk in warm.blocks.items() if blk.rejected is not None] == [warm.top_key()]
        actions = list(_window_actions(cold, affine.COLOR_BASES, range(-3, 4)))
        assert actions and all(warm.act_matrix(*a) == cold.act_matrix(*a) for a in actions)


def test_block_dimensions_off_their_weyl_orbit_are_refused(monkeypatch, capsys):
    # negative control for the Weyl-orbit guard: a scan poisoned to drop one
    # word of one block's basis breaks dim(d, w) == dim(d, s.w), so the
    # build must raise, and the CLI reports a failed claim (exit 1)
    spec, key = HighestWeightSpec(0, 1, 0), (2, (1, 0))
    real_scan = VermaModule._scan

    def poisoned(self, k):
        bb = real_scan(self, k)
        if self.spec == spec and k == key:
            bb = BlockBasis(
                basis=bb.basis[:-1],
                matrix=[row[:-1] for row in bb.matrix[:-1]],
                candidates=bb.candidates,
                vectors=bb.vectors[:-1],
                factor=bb.factor,
                rejected=bb.rejected,
            )
        return bb

    monkeypatch.setattr(VermaModule, "_scan", poisoned)
    monkeypatch.delenv("AFFINE_BASIS_CACHE", raising=False)
    with pytest.raises(ArithmeticError, match="not Weyl-invariant"):
        TruncatedModule(spec, 2)
    assert cli.main(["verify", "intertwiner", "--depth", "2", "--quiet"]) == 1
    assert "not Weyl-invariant" in capsys.readouterr().err


def test_coordinates_reject_nonnull_vectors_in_empty_blocks(monkeypatch):
    # x11(0)^2 on the top of the target module lands in an empty block
    # (weight too high); the zero vector passes, a fake nonzero one raises
    empty_key = (0, (9, 9))
    assert TARGET.dim(empty_key) == 0
    assert TARGET.coordinates(empty_key, {}) == []
    # every vector of an empty block is zero in the quotient, so a pairing
    # that calls the monomial x11(0)^2 nonzero stands in for a nonnull one:
    # the norm test must refuse it
    x11 = affine.encode(0, 9)
    fake = {(x11, x11): 1}
    top = TARGET.top_key()
    fake_key = (0, (top[1][0] + 4, top[1][1]))
    assert TARGET.dim(fake_key) == 0 and TARGET.coordinates(fake_key, fake) == []
    monkeypatch.setattr(TARGET.verma.kernel, "pair_mono", lambda mono, vec: 1)
    with pytest.raises(ArithmeticError, match="reported empty"):
        TARGET.coordinates(fake_key, fake)
    # an image that is zero in the quotient passes: x11(-1) on the top of
    # the source leaves the support
    image = SOURCE.verma.act_word((affine.encode(-1, 9),))
    assert image and SOURCE.coordinates((1, (3, 0)), image) == []


def test_coordinates_refuse_a_vector_of_another_block():
    # pairings across blocks vanish, so a vector of block (0, (0, 1)) would
    # read as zero coordinates in block (0, (0, -1)); it must raise instead
    vec = SOURCE.blocks[(0, (0, 1))].vectors[0]
    assert SOURCE.dim((0, (0, -1))) == 1
    with pytest.raises(ValueError, match="does not lie in block"):
        SOURCE.coordinates((0, (0, -1)), vec)
    with pytest.raises(ValueError, match="does not lie in block"):
        SOURCE.coordinates((0, (0, 1)), {**vec, **SOURCE.blocks[(0, (0, -1))].vectors[0]})
    with pytest.raises(ValueError, match="does not lie in block"):
        TARGET.coordinates((0, (9, 9)), TARGET.blocks[TARGET.top_key()].vectors[0])


def test_act_matrix_certifies_images_into_empty_blocks_by_their_norm(monkeypatch):
    # control: an image in an empty block of the window is not taken as
    # zero by the closure alone; it goes through coordinates, whose norm
    # test must run (here patched to call every vector nonzero)
    model = TruncatedModule(HighestWeightSpec(0, 1, 0), 1)
    monkeypatch.setattr(VermaModule, "zero_in_quotient", lambda self, vec: False)
    with pytest.raises(ArithmeticError, match="reported empty"):
        model.act_matrix(affine.encode(-1, 9), model.top_key())


def test_act_matrix_window_guard():
    with pytest.raises(ValueError):
        SOURCE.act_matrix(affine.encode(-3, 9), SOURCE.top_key())


def _counted_scans(monkeypatch):
    """The keys of the block scans from here on, in order."""
    scans = []
    real_scan = VermaModule._scan

    def counting(self, key):
        scans.append(key)
        return real_scan(self, key)

    monkeypatch.setattr(VermaModule, "_scan", counting)
    return scans


def test_get_truncated_keeps_one_model_per_module(monkeypatch):
    # one model per (highest weight, cache directory), closed to the
    # deepest window asked for: a deeper request scans only the degrees no
    # earlier one reached, exactly the blocks a fresh build scans there, and
    # a shallower one scans nothing and returns the same model
    spec = HighestWeightSpec(0, 1, 0)
    scans = _counted_scans(monkeypatch)
    TruncatedModule(spec, 3)
    fresh = [key for key in scans if key[0] >= 2]
    scans.clear()
    model = get_truncated(spec, 1)
    assert scans and all(d <= 1 for d, _ in scans)
    scans.clear()
    assert get_truncated(spec, 3) is model and model.max_degree == 3
    assert scans == fresh
    scans.clear()
    assert get_truncated(spec, 2) is model and model.max_degree == 3
    assert scans == []
    assert list(intertwiner._TRUNC_CACHE) == [((0, 1, 0), None)]
    # a negative window is refused by a new model and by an existing one
    for labels in ((0, 1, 0), (0, 0, 1)):
        with pytest.raises(ValueError, match="max_degree must be nonnegative"):
            get_truncated(HighestWeightSpec(*labels), -1)
    assert model.max_degree == 3 and len(intertwiner._TRUNC_CACHE) == 1


def test_a_model_closed_deeper_equals_a_model_built_alone():
    # two models built at window 1, with action matrices memoised there,
    # then closed to 3: every action matrix with a target up to degree 2 is
    # that of a model built for window 2, and so is the w solve_w finds at
    # window 2; the certificate at window 2 passes on them
    specs = (HighestWeightSpec(0, 1, 0), HighestWeightSpec(0, 0, 1))
    models = [get_truncated(spec, 1) for spec in specs]
    for model in models:
        for le, key in _window_actions(model, affine.COLOR_BASES, (-1, 0, 1)):
            model.act_matrix(le, key)
    assert [get_truncated(spec, 3) for spec in specs] == models
    alone = [TruncatedModule(spec, 2) for spec in specs]
    for model, ref in zip(models, alone):
        assert model.max_degree == 3
        assert [key for key in model.block_keys() if key[0] <= 2] == ref.block_keys()
        assert model.block_keys() != ref.block_keys()
        for key, blk in ref.blocks.items():
            assert (model.blocks[key].basis, model.blocks[key].matrix) == (blk.basis, blk.matrix)
        for le, key in _window_actions(ref, affine.COLOR_BASES, range(-2, 3)):
            assert model.act_matrix(le, key) == ref.act_matrix(le, key), (key, le)
    w, ref = solve_w(*models, 2), solve_w(*alone, 2)
    assert (w.blocks, w.dens, w.freedom) == (ref.blocks, ref.dens, ref.freedom)
    assert verify_intertwiner(2).ok


def test_a_model_build_frees_the_straightening_memo():
    # a build or a close that scans blocks, and each action matrix the
    # model computes, empty both kernel memos (straightening and pairs); a
    # request the model already holds scans nothing.  Some of these
    # matrices map into an empty block, whose images are straightened and
    # paired for their norm check
    spec = HighestWeightSpec(0, 1, 0)
    model = get_truncated(spec, 1)
    kernel = model.verma.kernel
    assert not kernel._memo and not kernel._pmemo
    actions = list(_window_actions(model, affine.COLOR_BASES, (-1,)))
    assert any(not model.dim(model.target_key(le, key)) for le, key in actions)
    for le, key in actions:
        model.act_matrix(le, key)
        assert not kernel._memo and not kernel._pmemo
    built = len(model.verma._bases)
    assert get_truncated(spec, 1) is model and len(model.verma._bases) == built
    assert get_truncated(spec, 2) is model and len(model.verma._bases) > built
    assert not kernel._memo and not kernel._pmemo


def test_act_matrix_entries_match_kernel_action():
    le = affine.encode(-1, 0)
    key = SOURCE.top_key()
    tgt, rows, den = SOURCE.act_matrix(le, key)
    assert tgt == (1, (-1, 0))
    image = dict(SOURCE.verma.kernel.act_le(le, SOURCE.blocks[key].basis[0]))
    coords = SOURCE.coordinates(tgt, image)
    coord_den = oracles.det_fraction(SOURCE.blocks[tgt].matrix)
    assert [Fraction(rows[r][0], den) for r in range(len(rows))] == [
        Fraction(x, coord_den) for x in coords
    ]
    # raising the top along the long root leaves the quotient: the image
    # block is empty at level 1, so the zero map has no rows
    tgt2, rows2, den2 = SOURCE.act_matrix(affine.encode(-1, 9), key)
    assert tgt2 == (1, (3, 0))
    assert rows2 == [] and den2 == 1 and SOURCE.dim(tgt2) == 0


def test_act_matrices_are_reduced_integer_rows_matching_the_kernel():
    # every action matrix of the window: integer rows of the block's shape
    # over a positive denominator that shares no factor with all entries,
    # and each column is the kernel action of x on that basis vector
    for key in SOURCE.block_keys():
        for base in affine.COLOR_BASES + (0, 3):
            for n in (-1, 0, 1):
                le = affine.encode(n, base)
                tgt = SOURCE.target_key(le, key)
                if not 0 <= tgt[0] <= SOURCE.max_degree:
                    continue
                got, rows, den = SOURCE.act_matrix(le, key)
                assert got == tgt and den > 0
                assert len(rows) == SOURCE.dim(tgt)
                assert all(len(row) == SOURCE.dim(key) for row in rows)
                assert all(isinstance(x, int) for row in rows for x in row)
                assert math.gcd(den, *(x for row in rows for x in row)) == 1
                if not rows:
                    continue
                coord_den = oracles.det_fraction(SOURCE.blocks[tgt].matrix)
                for c, vec in enumerate(SOURCE.blocks[key].vectors):
                    image = SOURCE.verma.kernel.act_word((le,), vec)
                    coords = SOURCE.coordinates(tgt, image)
                    assert [x * den for x in coords] == [row[c] * coord_den for row in rows]


def _window_actions(model, bases, modes):
    """(le, key) for every code of `bases` at every mode of `modes` and
    every block of the model whose image stays in its window."""
    for key in model.block_keys():
        for base in bases:
            for n in modes:
                le = affine.encode(n, base)
                if 0 <= model.target_key(le, key)[0] <= model.max_degree:
                    yield le, key


def test_act_matrices_equal_the_pairing_oracle():
    # every action matrix the intertwiner reads (each color at every mode of
    # the window, every block of both C2 models at depth 3) and the long-root
    # A1 generators the tensor model reads, against the column-by-column
    # pairing path.  The level-1 models' rejected candidates all have
    # integer coordinates; the level-2 model, with all ten bases, has
    # fractional ones and action matrices over 2
    checked = 0
    cases = [((0, 1, 0), 3, affine.COLOR_BASES, range(-3, 4)),
             ((0, 0, 1), 3, affine.COLOR_BASES, range(-3, 4)),
             ((1, 0, 0), 3, GEN_A1, range(-3, 4)),
             ((0, 1, 0), 3, GEN_A1, range(-3, 4)),
             ((1, 1, 0), 2, range(10), range(-2, 3))]
    dens = set()
    for labels, depth, bases, modes in cases:
        model = get_truncated(HighestWeightSpec(*labels), depth)
        inverses = {}
        for le, key in _window_actions(model, bases, modes):
            ref = oracles.pairing_act_matrix(model, le, key, inverses)
            assert model.act_matrix(le, key) == ref, (labels, le, key)
            dens.add(ref[2])
            checked += 1
    assert checked == 4104 and dens == {1, 2}


def test_act_matrices_without_the_central_term_fail_the_oracle(monkeypatch):
    # negative control: the image recursion with the central term of
    # [x(i), y(-i)] dropped gives a wrong matrix somewhere at depth 2
    monkeypatch.setattr(intertwiner, "_central", lambda form, level, x, y: 0)
    model = TruncatedModule(HighestWeightSpec(0, 1, 0), 2)
    wrong = [
        (le, key)
        for le, key in _window_actions(model, affine.COLOR_BASES, range(-2, 3))
        if model.act_matrix(le, key) != oracles.pairing_act_matrix(model, le, key)
    ]
    assert wrong


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
    w1 = solve_w(SOURCE, TARGET, 2)
    w2 = solve_w(SOURCE, TARGET, 2)
    assert w1.blocks == w2.blocks
    assert w1.dens == w2.dens
    assert w1.freedom == w2.freedom == {0: 0, 1: 0, 2: 0}
    assert w1.consistent is True
    # normalization: the weight-(0,1) degree-0 block maps by the identity
    assert w1.block((0, (0, 1))) == ([[w1.dens[0]]], w1.dens[0])
    # the source top vector is killed: its block is an all-zero dim x 1 matrix
    top = SOURCE.top_key()
    n_top = TARGET.dim(intertwiner._shift(top))
    assert w1.blocks[top] == [[0]] * n_top
    # every block is a plain dim(shift(key)) x dim(key) integer matrix over
    # the positive, fully reduced denominator of its degree
    assert set(w1.blocks) == set(SOURCE.block_keys())
    assert set(w1.dens) == {0, 1, 2}
    for key, mat in w1.blocks.items():
        assert isinstance(mat, list)
        assert len(mat) == TARGET.dim(intertwiner._shift(key))
        assert all(len(row) == SOURCE.dim(key) for row in mat)
        assert all(isinstance(x, int) for row in mat for x in row)
    for d, den in w1.dens.items():
        nums = [x for key, mat in w1.blocks.items() if key[0] == d for row in mat for x in row]
        assert den > 0 and math.gcd(den, *nums) == 1


def test_w_at_depth_three_is_pinned():
    # the solved map itself, not only its freedom: a change to the
    # elimination or to a block basis that moves W moves this digest
    src = get_truncated(HighestWeightSpec(0, 1, 0), 3)
    tgt = get_truncated(HighestWeightSpec(0, 0, 1), 3)
    w = solve_w(src, tgt, 3)
    assert oracles.w_digest(w) == (
        "ff6cec74977990bc30006ba3f1aa04b237a93c0d177056f5b0cadb698f2af176"
    )
    assert set(w.freedom.values()) == {0}


def test_w_at_depth_four_is_pinned():
    # the D = 4 map in the canonical form of the depth-three pin; it also
    # commutes with every color action of the window
    src = get_truncated(HighestWeightSpec(0, 1, 0), 4)
    tgt = get_truncated(HighestWeightSpec(0, 0, 1), 4)
    w = solve_w(src, tgt, 4)
    assert oracles.w_digest(w) == (
        "49d3c60d85739acb07d33d7abd2860748112d6ecb00d8f00fb1051e7d142cdb6"
    )
    assert set(w.freedom.values()) == {0}
    assert intertwiner._check_commutation(src, tgt, w, 4) is None


def test_solve_w_matches_the_unstructured_system():
    # the block-by-block solve against the oracle that writes one sparse
    # row per matrix entry of every equation and solves each degree by
    # Fraction elimination: the same numerators, denominators and freedom
    # at every degree of every window up to 3
    src = get_truncated(HighestWeightSpec(0, 1, 0), 3)
    tgt = get_truncated(HighestWeightSpec(0, 0, 1), 3)
    for depth in range(4):
        w = solve_w(src, tgt, depth)
        blocks, dens, freedom, counts = oracles.solve_w_fraction(
            src, tgt, depth, affine.encode, affine.COLOR_BASES
        )
        assert counts == [3, 56, 699, 5059][: depth + 1]
        assert w.freedom == freedom == {d: 0 for d in range(depth + 1)}
        assert w.dens == dens
        assert w.blocks == blocks


def test_a_chain_sweep_refuses_a_negative_window_before_any_model():
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        sweep_projection_chain(A1Standard(0, 1), -1)
    assert not intertwiner._TRUNC_CACHE


@pytest.mark.parametrize("check", [sweep_projection_chain, verify_cross_model])
def test_the_chain_and_cross_model_refuse_other_kinds(check):
    # both read only the labels k0 and k1 of a long-root kind: a C2FS kind
    # would be certified as the A1 chain, or checked in an arena without
    # its level-2 label, so it is refused before any model is built
    with pytest.raises(ValueError, match="long-root kinds"):
        check(C2FS(0, 1, 1), 2)
    assert not intertwiner._TRUNC_CACHE


def test_the_chain_refuses_k1_zero_before_any_model():
    # at k1 = 0, w_{k1,0} is the identity and no s > c0 exists: every
    # partition would pass with mu = 1 without reading w.  The cross-model
    # check still runs there, where its pairings are real
    kind = A1Standard(1, 0)
    with pytest.raises(ValueError, match="k1 > 0"):
        sweep_projection_chain(kind, 2)
    with pytest.raises(ValueError, match="k1 > 0"):
        verify_projection_chain(kind, enumerate_admissible(kind, 1)[1])
    assert not intertwiner._TRUNC_CACHE
    assert verify_cross_model(kind, 1).ok


def test_solve_w_refuses_a_window_its_models_do_not_hold():
    # a window deeper than either model would certify degrees that neither
    # holds; a negative window certifies nothing.  The window-1 models are
    # private: get_truncated's may have been closed deeper
    small = TruncatedModule(HighestWeightSpec(0, 1, 0), 1)
    small_target = TruncatedModule(HighestWeightSpec(0, 0, 1), 1)
    for source, target, window in (
        (small, small_target, 3),
        (small, TARGET, 2),
        (SOURCE, small_target, 2),
        (SOURCE, TARGET, -1),
    ):
        with pytest.raises(ValueError):
            solve_w(source, target, window)
    w = solve_w(small, TARGET, 1)
    assert w.consistent and w.freedom == {0: 0, 1: 0}


def test_a_perturbed_target_action_has_no_intertwiner():
    # negative control for the solver's failure path: 1 added to one entry
    # of one target action matrix leaves the degree-1 system without a
    # solution; solve_w stops there, and the certificate and every
    # projection chain that reads w from the same store fail.  The
    # perturbed lowering equation constrains block (1, (-1, 2)), whose own
    # equations still have a solution; the mode-0 links and the
    # normalization then have none, and the witness says so
    source = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    target = get_truncated(HighestWeightSpec(0, 0, 1), 2)
    le, key = affine.encode(-1, X22), (0, (0, 0))
    tgt, rows, den = target.act_matrix(le, key)
    rows = [list(row) for row in rows]
    r, c = next((r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x)
    rows[r][c] += 1
    target._act[(le, key)] = (tgt, rows, den)
    w = solve_w(source, target, 2)
    assert w.consistent is False
    assert w.freedom == {0: 0, 1: None}
    assert w.failure == {"solve": "linked", "degree": 1}
    failed = {"freedom": {"0": 0, "1": None}, "top_killed": None, "commutes": None,
              "solve_failure": {"solve": "linked", "degree": 1}}
    rep = verify_intertwiner(2)
    assert not rep.ok
    assert rep.witness == failed
    kind = A1Standard(0, 1)
    for pi in enumerate_admissible(kind, 2):
        chain = verify_projection_chain(kind, pi)
        assert not chain.ok
        assert chain.witness == failed
        assert set(chain.inputs) == {"partition", "labels", "c0"}
    sweep = sweep_projection_chain(kind, 2)
    assert not sweep.ok
    assert not any(e["ok"] or e["mu"] for e in sweep.witness["partitions"])


@pytest.mark.parametrize(
    "mode, key, failure",
    [
        (-1, (1, (0, -2)), {"solve": "two_sided", "block": [2, [-1, 0]]}),
        (1, (2, (0, -2)), {"solve": "two_sided", "block": [2, [-1, -2]]}),
        (0, (2, (3, -1)), {"solve": "linked", "degree": 2}),
    ],
    ids=["lowering", "raising", "mode-0"],
)
def test_a_perturbed_target_action_of_each_equation_class_has_no_intertwiner(mode, key, failure):
    # negative controls for each kind of equation solve_w meets: 1 added to
    # one entry of a target action matrix of x22 at a lowering, a raising
    # or the zero mode leaves degree 2 without a solution.  solve_w must
    # find that degree, as the unstructured Fraction solve does, and the
    # certificate must fail.  The failure names where: the lowering
    # equation x22(-1) on source block (1, (-1, -2)) constrains W on its
    # image (2, (-1, 0)), the raising one x22(1) constrains W on the
    # perturbed block's source (2, (-1, -2)), and a mode-0 equation links
    # two unknown blocks, so only the linked solve can fail
    source = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    target = get_truncated(HighestWeightSpec(0, 0, 1), 2)
    le = affine.encode(mode, X22)
    tgt, rows, den = target.act_matrix(le, key)
    rows = [list(row) for row in rows]
    r, c = next((r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x)
    rows[r][c] += 1
    target._act[(le, key)] = (tgt, rows, den)
    w = solve_w(source, target, 2)
    ref = oracles.solve_w_fraction(source, target, 2, affine.encode, affine.COLOR_BASES)[2]
    assert w.freedom == ref == {0: 0, 1: 0, 2: None}
    assert w.failure == failure
    # a window the solve passed carries no failure, one that holds it does
    assert w.restrict(1).failure is None and w.restrict(2).failure == failure
    rep = verify_intertwiner(2)
    assert not rep.ok and rep.witness["solve_failure"] == failure


def test_traced_build_counts_of_the_depth_three_models():
    # perfbench's tracer counts scanned blocks, candidates and kept words
    # through VermaModule.block_basis; a build that bypassed it would read
    # as zero there, so the depth-3 numbers are pinned here
    tracer = installed_tracer()
    try:
        for labels in ((0, 1, 0), (0, 0, 1)):
            TruncatedModule(HighestWeightSpec(*labels), 3)
    finally:
        tracer.uninstall()
    counts = {k: tracer.counts[k] for k in ("pbw.blocks", "pbw.candidates", "pbw.kept")}
    assert counts == {"pbw.blocks": 165, "pbw.candidates": 845, "pbw.kept": 450}


def test_traced_layer_counts_of_the_depth_three_intertwiner():
    # action matrices are built from the closure words: a rejected
    # candidate's coordinates come from its scan row, and coordinates run
    # only for images into empty blocks, so nothing is paired a second time
    # and no Gram inverse is computed at run time.  A return to pairing the
    # rejected candidates, every column, or inverting reads as more calls
    # here
    tracer = installed_tracer()
    for name in ("gram_factor", "bordered_minor"):
        tracer.patch(linalg, name, "linalg." + name)
    tracer.patch(intertwiner, "gram_solve", "linalg.gram_solve")
    try:
        assert verify_intertwiner(3).ok
    finally:
        tracer.uninstall()
    names = ("intertwiner.act_matrix", "intertwiner.coordinates", "linalg.invert")
    # an equation whose target block is empty has no rows, so neither of
    # its action matrices is computed: 604 of the window's 1,344 matrices,
    # each read once by the solve and once by the check.  The 36
    # coordinates calls are the norm route on the matrices the certificate
    # reads: source images into an empty block whose shifted target block
    # is not empty
    assert [tracer.calls(name) for name in names] == [1208, 36, 0]
    # each Gram matrix is eliminated once, by the scan's keep test, and its
    # factor kept on the block, with each rejected candidate's row: a
    # second elimination of a block's Gram matrix, or of a rejected
    # candidate's pairings, reads as more calls here
    names = ("linalg.gram_factor", "linalg.bordered_minor", "linalg.gram_solve")
    assert [tracer.calls(name) for name in names] == [0, 843, 0]
    # solve_w eliminates block by block and hands solve_sparse only the
    # coupled rows in the free parameters, one call per degree: a return to
    # one row per matrix entry (5,817 rows in 1,738 unknowns) reads here
    solve = [tracer.calls("linalg.solve_sparse"), tracer.counts["linalg.solve_sparse_rows"],
             tracer.counts["linalg.solve_sparse_vars"]]
    assert solve == [4, 716, 141]


def test_only_equations_without_rows_are_skipped():
    # an equation W[t1] A1 = A2 W[key] maps block `key` into the target
    # block shift(t1), and solve_w and the commutation check skip it exactly
    # when that block is empty: after a certification on fresh models, each
    # model holds the action matrices of every other color equation of the
    # window, and no more.  The Fraction reference, which skips nothing,
    # then checks every color equation of the window-3 map
    assert verify_intertwiner(3).ok
    src = get_truncated(HighestWeightSpec(0, 1, 0), 3)
    tgt = get_truncated(HighestWeightSpec(0, 0, 1), 3)
    loop_elements = [affine.encode(n, b) for b in affine.COLOR_BASES for n in range(-3, 4)]
    targets = {(le, key): src.target_key(le, key) for key in src.block_keys() for le in loop_elements}
    pairs = {
        pair for pair, t1 in targets.items() if 0 <= t1[0] <= 3 and tgt.dim(intertwiner._shift(t1))
    }
    assert len(pairs) == 302
    assert set(src._act) == pairs
    assert set(tgt._act) == {(le, intertwiner._shift(key)) for le, key in pairs}
    w, _ = intertwiner._solved_w(src, tgt, 3)
    assert oracles.commutes_fraction(src, tgt, w, loop_elements, 3)


def test_traced_calls_of_one_chain_sweep():
    # the tracer wraps the verifiers and solve_w on their modules; a sweep
    # that reached them another way would read as zero calls there.  Ten
    # partitions over windows 1 and 2: the sweep solves once, on window 2,
    # with one sparse solve per degree, and the window-1 partitions read
    # that map restricted
    tracer = installed_tracer()
    try:
        assert intertwiner.sweep_projection_chain(A1Standard(0, 1), 2).ok
    finally:
        tracer.uninstall()
    names = ("intertwiner.sweep_projection_chain", "intertwiner.verify_projection_chain",
             "intertwiner.solve_w", "linalg.solve_sparse")
    assert [tracer.calls(name) for name in names] == [1, 10, 1, 3]


def test_shallower_windows_read_the_certified_map_restricted(monkeypatch):
    # the store solves and certifies once, on the deepest window asked for;
    # a shallower window reads that map restricted, with no solve, and it
    # is the map solve_w finds on that window (here on the private window-2
    # models), so no pass witness moves
    src = get_truncated(HighestWeightSpec(0, 1, 0), 3)
    tgt = get_truncated(HighestWeightSpec(0, 0, 1), 3)
    deep, cert = intertwiner._solved_w(src, tgt, 3)
    assert cert == (True, True, None) and max(deep.dens) == 3
    calls = []
    real = intertwiner.solve_w

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(intertwiner, "solve_w", counting)
    for window in range(3):
        w, cert = intertwiner._solved_w(src, tgt, window)
        ref = real(SOURCE, TARGET, window)
        assert (w.blocks, w.dens, w.freedom) == (ref.blocks, ref.dens, ref.freedom), window
        assert cert == (True, True, None)
    assert calls == []
    assert list(src._solved) == [tgt] and src._solved[tgt][:2] == (3, deep)


def test_the_chain_fails_on_a_w_that_does_not_commute(monkeypatch):
    # negative control: every solved w has 1 added to one entry of its
    # first nonempty degree-2 block.  Each sweep solves once, on window 3,
    # where the certificate fails by commutation; the partitions of degree
    # 2 and 3 read that map and fail, and those of degrees 0 and 1 read it
    # restricted to window 1, which the perturbation does not reach, and
    # pass once it is certified again there
    perturb_solve_w(monkeypatch, 2)
    for labels in ((0, 1), (1, 1), (0, 2)):
        kind = A1Standard(*labels)
        pis = enumerate_admissible(kind, 3)
        assert {pi.degree for pi in pis} == {0, 1, 2, 3}
        rep = sweep_projection_chain(kind, 3)
        assert not rep.ok
        assert [e["ok"] for e in rep.witness["partitions"]] == [pi.degree < 2 for pi in pis]
    # both witnesses name the first failing equation, which reads the
    # perturbed block (2, (-3, 0)); the loops of windows 2 and 3 meet it
    # first at x(2) and at x(-1) of two different bases
    chain = verify_projection_chain(kind, next(pi for pi in pis if pi.degree == 2))
    assert chain.witness == {
        "freedom": {"0": 0, "1": 0, "2": 0},
        "top_killed": True,
        "commutes": False,
        "commutation_failure": {"block": [2, [-3, 0]], "code": affine.encode(2, 8)},
    }
    rep = verify_intertwiner(3)
    assert not rep.ok
    assert rep.witness == {
        "freedom": {"0": 0, "1": 0, "2": 0, "3": 0},
        "top_killed": True,
        "commutes": False,
        "commutation_failure": {"block": [2, [-3, 0]], "code": affine.encode(-1, 5)},
    }


def _perturbed_maps(w):
    """(label, map) for every single-entry perturbation of w: 1 added to one
    numerator, or one degree's denominator changed."""
    for key, mat in w.blocks.items():
        for r, row in enumerate(mat):
            for c in range(len(row)):
                blocks = {k: [list(rw) for rw in m] for k, m in w.blocks.items()}
                blocks[key][r][c] += 1
                yield (key, r, c), IntertwinerMap(SOURCE, TARGET, blocks, w.dens, w.freedom)
    for d, den in w.dens.items():
        for new_den in (den + 1, 2 * den):
            dens = {**w.dens, d: new_den}
            yield (d, new_den), IntertwinerMap(SOURCE, TARGET, w.blocks, dens, w.freedom)


def test_commutation_check_rejects_every_single_entry_perturbation():
    # negative control: the post-hoc check must catch a wrong W.  Adding 1
    # to any one numerator of any solved block, or changing the denominator
    # of any one degree, breaks commutation somewhere, and the check names
    # where: every other equation still holds, so the first failing one,
    # W[t1] A1 = A2 W[key], reads the perturbed block (or a block of the
    # perturbed degree) as W[key] or as W[t1]
    w = solve_w(SOURCE, TARGET, 2)
    assert intertwiner._check_commutation(SOURCE, TARGET, w, 2) is None
    perturbed = list(_perturbed_maps(w))
    assert len(perturbed) > len(w.dens) * 2
    for label, bad in perturbed:
        failure = intertwiner._check_commutation(SOURCE, TARGET, bad, 2)
        assert failure is not None, label
        key, code = failure
        read = (key, SOURCE.target_key(code, key))
        if len(label) == 3:  # (block, row, column) of a numerator
            assert label[0] in read, (label, failure)
        else:  # (degree, denominator)
            assert label[0] in (k[0] for k in read), (label, failure)


def test_commutation_check_agrees_with_the_fraction_reference():
    # the integer cross-multiplied check against a Fraction recomputation
    # of both products, on the solved W and on its perturbations
    w = solve_w(SOURCE, TARGET, 2)
    loop_elements = [affine.encode(n, b) for b in affine.COLOR_BASES for n in range(-2, 3)]
    assert oracles.commutes_fraction(SOURCE, TARGET, w, loop_elements, 2)
    for label, bad in _perturbed_maps(w):
        assert not oracles.commutes_fraction(SOURCE, TARGET, bad, loop_elements, 2), label


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


def test_tensor_action_window_check_on_factors_closed_deeper():
    # factors closed to degree 3 have action matrices into degree 2, so
    # only the tensor's own window check stops a degree-1 tensor there
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 3)
    v = TensorModule([m1], 1).act_word((affine.encode(-1, 0),))
    x = affine.encode(-1, 6)
    assert TensorModule([m1], 2).act_le(x, v)
    with pytest.raises(ValueError, match="^tensor action leaves the degree window$"):
        TensorModule([m1], 1).act_le(x, v)


def test_levels_add_in_tensor_models():
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    tensor = TensorModule([m1, m1], 2)
    verma = VermaModule(HighestWeightSpec(0, 2, 0), gens=GEN_C2)
    # h1(0) kills f(-1) applied to the vacuum, of weight 0: in the tensor
    # model the two slots' terms cancel
    for word in ((affine.encode(-1, 0),), (affine.encode(0, 6), affine.encode(-1, 0))):
        a = verma.pair(verma.act_word(word), verma.act_word(word))
        b = tensor.pair(tensor.act_word(word), tensor.act_word(word))
        assert Fraction(a) == b, word


def test_w_ks_with_zero_slots_is_the_identity():
    m1 = get_truncated(HighestWeightSpec(0, 1, 0), 2)
    w = solve_w(m1, get_truncated(HighestWeightSpec(0, 0, 1), 2), 2)
    tensor = TensorModule([m1], 2)
    vec = tensor.act_word((affine.encode(-1, 9),))
    apply0 = build_w_ks(w, 1, 0)
    assert apply0(vec) == vec


def test_w_ks_matches_the_product_over_slots():
    # build_w_ks applies w to one slot after another; the oracle expands all
    # s slots of a state at once, as a product over them
    w = solve_w(SOURCE, TARGET, 2)
    triples = [(d, wt, i) for d, wt in SOURCE.block_keys() for i in range(SOURCE.dim((d, wt)))]
    rng = random.Random(16)
    fractional = nonzero = 0
    for n in range(4):
        for _ in range(5):
            vec = {}
            for _ in range(8):
                vec[tuple(rng.choice(triples) for _ in range(n))] = rng.choice((-3, -2, -1, 1, 2, 5))
            for s in range(n + 1):
                got = build_w_ks(w, n, s)(vec)
                assert got == oracles.w_ks_reference(w, n, s, vec), (n, s)
                nonzero += bool(got)
                fractional += any(Fraction(c).denominator > 1 for c in got.values())
    assert nonzero > 20 and fractional > 5


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
    # a sweep solves w once, on its deepest window (depth 2), before its
    # first partition; the partitions of degrees 0 and 1 read it restricted
    # to depth 1, and each record is the partition's own report
    kind = A1Standard(0, 2)
    pis = enumerate_admissible(kind, 2)
    direct = [verify_projection_chain(kind, pi) for pi in pis]  # each on its own window
    calls = []
    real = intertwiner.solve_w

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(intertwiner, "solve_w", counting)
    # the direct calls solved w on the stored models: start from none
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    rep = sweep_projection_chain(kind, 2)
    assert [args[2] for args in calls] == [2]
    assert rep.ok
    assert rep.witness["partitions"] == [
        {"partition": pi.tag(), "ok": r.ok, "mu": r.witness["mu"]} for pi, r in zip(pis, direct)
    ]


def test_sweeps_of_one_depth_share_one_solve(monkeypatch):
    # a second sweep of the same depth solves nothing new
    calls = []
    real = intertwiner.solve_w

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(intertwiner, "solve_w", counting)
    assert sweep_projection_chain(A1Standard(0, 1), 2).ok
    assert [args[2] for args in calls] == [2]
    assert sweep_projection_chain(A1Standard(1, 1), 2).ok
    assert [args[2] for args in calls] == [2]


def test_cross_model_computes_each_tensor_vector_once(monkeypatch):
    calls = []
    real = TensorModule.act_word

    def counting(self, word):
        calls.append(tuple(word))
        return real(self, word)

    monkeypatch.setattr(TensorModule, "act_word", counting)
    kind = A1Standard(1, 1)
    rep = verify_cross_model(kind, 2)
    assert rep.ok
    words = [kind.monomial_word(pi) for pi in enumerate_admissible(kind, 2)]
    assert sorted(calls) == sorted(words)
    assert rep.witness["pairs_checked"] > len(words)


def test_cross_model_fails_on_one_wrong_tensor_pairing(monkeypatch):
    # negative control: a half added to the first tensor pairing, and to
    # no other, is the one mismatch the witness lists, as an exact p/q
    real = TensorModule.pair
    calls = []

    def off_by_a_half(self, u, v):
        calls.append(None)
        return real(self, u, v) + Fraction(len(calls) == 1, 2)

    monkeypatch.setattr(TensorModule, "pair", off_by_a_half)
    rep = verify_cross_model(A1Standard(1, 1), 2)
    assert rep.ok is False
    (bad,) = rep.witness["mismatches"]
    assert bad["tensor"] == "%d/2" % (2 * int(bad["verma"]) + 1)
    assert rep.witness["pairs_checked"] == len(calls) > 1


def test_cross_model_agreement():
    rep = verify_cross_model(A1Standard(1, 1), 2)
    assert rep.ok
    assert rep.witness["pairs_checked"] > 0
    assert rep.witness["mismatches"] == []
