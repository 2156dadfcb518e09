"""Truncated modules, tensor models, and the color intertwiner."""

import dataclasses
from fractions import Fraction
import hashlib
import importlib.util
import json
import math
import os
import random

import pytest

import oracles
from affine_basis import affine
from affine_basis import cli
from affine_basis import intertwiner
from affine_basis.cartan import X22
from affine_basis.intertwiner import (
    EPS1,
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
from affine_basis.partitions import A1Standard, ColoredPartition, enumerate_admissible
from affine_basis.pbw import HighestWeightSpec, VermaModule, GEN_A1, GEN_C2


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
    # integer numerators over the block's denominator: each basis vector
    # has unit coordinates, the zero vector zero ones, and the denominator
    # is the Gram determinant
    dens = set()
    for key in SOURCE.block_keys():
        den = SOURCE.gram_factor(key)[1][-1]
        assert den == abs(oracles.det_fraction(SOURCE.gram[key]))
        dens.add(den)
        for i, vec in enumerate(SOURCE.vectors[key]):
            coords = SOURCE.coordinates(key, vec)
            assert all(isinstance(x, int) for x in coords)
            assert coords == [den * int(j == i) for j in range(SOURCE.dim(key))]
        assert SOURCE.coordinates(key, {}) == [0] * SOURCE.dim(key)
    assert max(dens) > 1  # some block is not unimodular


def test_block_dimensions_off_their_weyl_orbit_are_refused(monkeypatch, capsys):
    # negative control for the Weyl-orbit guard: a scan poisoned to drop one
    # word of one block's basis breaks dim(d, w) == dim(d, s.w), so the
    # build must raise, and the CLI reports a failed claim (exit 1)
    spec, key = HighestWeightSpec(0, 1, 0), (2, (1, 0))
    real_scan = VermaModule._scan

    def poisoned(self, k):
        bb = real_scan(self, k)
        if self.spec == spec and k == key:
            bb = dataclasses.replace(
                bb,
                basis=bb.basis[:-1],
                matrix=[row[:-1] for row in bb.matrix[:-1]],
                rank=bb.rank - 1,
                vectors=bb.vectors[:-1],
            )
        return bb

    monkeypatch.setattr(VermaModule, "_scan", poisoned)
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
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
    vec = SOURCE.vectors[(0, (0, 1))][0]
    assert SOURCE.dim((0, (0, -1))) == 1
    with pytest.raises(ValueError, match="does not lie in block"):
        SOURCE.coordinates((0, (0, -1)), vec)
    with pytest.raises(ValueError, match="does not lie in block"):
        SOURCE.coordinates((0, (0, 1)), {**vec, **SOURCE.vectors[(0, (0, -1))][0]})
    with pytest.raises(ValueError, match="does not lie in block"):
        TARGET.coordinates((0, (9, 9)), TARGET.vectors[TARGET.top_key()][0])


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


def test_smaller_window_view_equals_a_model_built_alone(monkeypatch):
    # a window-2 model taken after the window-3 one is a view of the same
    # store: it scans no block, and it is the model a window-2 build gives
    spec = HighestWeightSpec(0, 1, 0)
    alone = TruncatedModule(spec, 2)
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    deep = get_truncated(spec, 3)
    scans = []
    real_scan = VermaModule._scan

    def counting(self, key):
        scans.append(key)
        return real_scan(self, key)

    monkeypatch.setattr(VermaModule, "_scan", counting)
    view = get_truncated(spec, 2)
    assert scans == []
    assert view is not deep and view.verma is deep.verma
    assert len(intertwiner._TRUNC_CACHE) == 1
    assert (deep.max_degree, view.max_degree) == (3, 2)
    assert view.block_keys() == alone.block_keys() != deep.block_keys()
    assert view.basis == alone.basis
    assert view.gram == alone.gram
    for key in view.block_keys():
        for base in affine.COLOR_BASES:
            for n in (-2, -1, 0, 1, 2):
                le = affine.encode(n, base)
                if 0 <= view.target_key(le, key)[0] <= 2:
                    assert view.act_matrix(le, key) == alone.act_matrix(le, key), (key, le)
    # the window is checked before the memo the views share: the window-3
    # model has this action memoised, the window-2 view must still refuse it
    x = affine.encode(-3, 9)
    assert deep.act_matrix(x, deep.top_key())[0][0] == 3
    with pytest.raises(ValueError):
        view.act_matrix(x, view.top_key())


def test_a_model_build_frees_the_straightening_memo(monkeypatch):
    # a build that scans blocks empties the kernel's straightening memo and
    # keeps its pair memo; a smaller window scans nothing and leaves the
    # memo as the action matrices refilled it
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    spec = HighestWeightSpec(0, 1, 0)
    model = get_truncated(spec, 2)
    kernel = model.verma.kernel
    assert not kernel._memo and kernel._pmemo
    for key in model.block_keys():
        for base in affine.COLOR_BASES:
            if model.target_key(affine.encode(-1, base), key)[0] <= 2:
                model.act_matrix(affine.encode(-1, base), key)
    refilled = dict(kernel._memo)
    assert refilled
    view = get_truncated(spec, 1)
    assert view.verma is model.verma and kernel._memo == refilled
    alone = TruncatedModule(spec, 1)
    for key in view.block_keys():
        for base in affine.COLOR_BASES:
            for n in (-1, 0, 1):
                le = affine.encode(n, base)
                if 0 <= view.target_key(le, key)[0] <= 1:
                    assert view.act_matrix(le, key) == alone.act_matrix(le, key), (key, le)


def test_act_matrix_entries_match_kernel_action():
    le = affine.encode(-1, 0)
    key = SOURCE.top_key()
    tgt, rows, den = SOURCE.act_matrix(le, key)
    assert tgt == (1, (-1, 0))
    image = SOURCE.verma.kernel.act_le(le, SOURCE.basis[key][0])
    coords = SOURCE.coordinates(tgt, image)
    coord_den = oracles.det_fraction(SOURCE.gram[tgt])
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
                coord_den = oracles.det_fraction(SOURCE.gram[tgt])
                for c, vec in enumerate(SOURCE.vectors[key]):
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
    canonical = json.dumps(
        {
            "blocks": sorted([[k[0], list(k[1]), rows] for k, rows in w.blocks.items()]),
            "dens": sorted(w.dens.items()),
            "freedom": sorted(w.freedom.items()),
        },
        sort_keys=True,
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "ff6cec74977990bc30006ba3f1aa04b237a93c0d177056f5b0cadb698f2af176"
    )
    assert set(w.freedom.values()) == {0}


def test_w_at_depth_four_is_pinned(monkeypatch):
    # the D = 4 map in the canonical form of the depth-three pin; it also
    # commutes with every color action of the window
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    src = get_truncated(HighestWeightSpec(0, 1, 0), 4)
    tgt = get_truncated(HighestWeightSpec(0, 0, 1), 4)
    w = solve_w(src, tgt, 4)
    canonical = json.dumps(
        {
            "blocks": sorted([[k[0], list(k[1]), rows] for k, rows in w.blocks.items()]),
            "dens": sorted(w.dens.items()),
            "freedom": sorted(w.freedom.items()),
        },
        sort_keys=True,
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "49d3c60d85739acb07d33d7abd2860748112d6ecb00d8f00fb1051e7d142cdb6"
    )
    assert set(w.freedom.values()) == {0}
    assert intertwiner._check_commutation(src, tgt, w, 4)


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


def test_solve_w_refuses_a_window_its_models_do_not_hold():
    # a window deeper than either model would certify degrees that neither
    # holds; a negative window certifies nothing
    small = get_truncated(HighestWeightSpec(0, 1, 0), 1)
    for source, target, window in (
        (small, get_truncated(HighestWeightSpec(0, 0, 1), 1), 3),
        (small, TARGET, 2),
        (SOURCE, get_truncated(HighestWeightSpec(0, 0, 1), 1), 2),
        (SOURCE, TARGET, -1),
    ):
        with pytest.raises(ValueError):
            solve_w(source, target, window)
    w = solve_w(small, TARGET, 1)
    assert w.consistent and w.freedom == {0: 0, 1: 0}


def test_a_perturbed_target_action_has_no_intertwiner(monkeypatch):
    # negative control for the solver's failure path: 1 added to one entry
    # of one target action matrix leaves the degree-1 system without a
    # solution; solve_w stops there, and the certificate and every
    # projection chain that reads w from the same store fail
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
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
    rep = verify_intertwiner(2)
    assert not rep.ok
    assert rep.witness == {"freedom": {"0": 0, "1": None}, "top_killed": None, "commutes": None}
    kind = A1Standard(0, 1)
    for pi in enumerate_admissible(kind, 2):
        chain = verify_projection_chain(kind, pi)
        assert not chain.ok
        assert chain.witness == {"error": "no intertwiner in window"}
        assert set(chain.inputs) == {"partition", "labels", "c0"}
    sweep = sweep_projection_chain(kind, 2)
    assert not sweep.ok
    assert not any(e["ok"] or e["mu"] for e in sweep.witness["partitions"])


@pytest.mark.parametrize(
    "mode, key",
    [(-1, (1, (0, -2))), (1, (2, (0, -2))), (0, (2, (3, -1)))],
    ids=["lowering", "raising", "mode-0"],
)
def test_a_perturbed_target_action_of_each_equation_class_has_no_intertwiner(
    monkeypatch, mode, key
):
    # negative controls for each kind of equation solve_w meets: 1 added to
    # one entry of a target action matrix of x22 at a lowering, a raising
    # or the zero mode leaves degree 2 without a solution.  solve_w must
    # find that degree, as the unstructured Fraction solve does, and the
    # certificate must fail
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
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
    assert not verify_intertwiner(2).ok


def _installed_tracer():
    """perfbench's tracer, installed around the package's entry points; the
    caller uninstalls it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    return tracer


def test_traced_build_counts_of_the_depth_three_models():
    # perfbench's tracer counts scanned blocks, candidates and kept words
    # through VermaModule.block_basis; a build that bypassed it would read
    # as zero there, so the depth-3 numbers are pinned here
    tracer = _installed_tracer()
    try:
        for labels in ((0, 1, 0), (0, 0, 1)):
            TruncatedModule(HighestWeightSpec(*labels), 3)
    finally:
        tracer.uninstall()
    counts = {k: tracer.counts[k] for k in ("pbw.blocks", "pbw.candidates", "pbw.kept")}
    assert counts == {"pbw.blocks": 165, "pbw.candidates": 845, "pbw.kept": 450}


def test_traced_layer_counts_of_the_depth_three_intertwiner(monkeypatch):
    # action matrices are built from the closure words: coordinates run only
    # for rejected candidates and for images into empty blocks, solved on
    # the Gram factor, so no Gram inverse is computed at run time.  A return
    # to pairing every column, or to inverting, reads as more calls here
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    tracer = _installed_tracer()
    try:
        assert verify_intertwiner(3).ok
    finally:
        tracer.uninstall()
    names = ("intertwiner.act_matrix", "intertwiner.coordinates", "linalg.invert")
    assert [tracer.calls(name) for name in names] == [2688, 2056, 0]
    # solve_w eliminates block by block and hands solve_sparse only the
    # coupled rows in the free parameters, one call per degree: a return to
    # one row per matrix entry (5,817 rows in 1,738 unknowns) reads here
    solve = [tracer.calls("linalg.solve_sparse"), tracer.counts["linalg.solve_sparse_rows"],
             tracer.counts["linalg.solve_sparse_vars"]]
    assert solve == [4, 716, 141]


def test_traced_calls_of_one_chain_sweep(monkeypatch):
    # the tracer wraps the verifiers and solve_w on their modules; a sweep
    # that reached them another way would read as zero calls there.  Ten
    # partitions over windows 1 and 2: one solve per window, one sparse
    # solve per degree of each
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    tracer = _installed_tracer()
    try:
        assert intertwiner.sweep_projection_chain(A1Standard(0, 1), 2).ok
    finally:
        tracer.uninstall()
    names = ("intertwiner.sweep_projection_chain", "intertwiner.verify_projection_chain",
             "intertwiner.solve_w", "linalg.solve_sparse")
    assert [tracer.calls(name) for name in names] == [1, 10, 2, 5]


def test_apply_block_shifts_by_eps1():
    w = solve_w(SOURCE, TARGET, 2)
    key = (0, (0, 1))
    tgt, out = w.apply_block(key, [3])
    assert tgt == (0, (0 + EPS1[0], 1 + EPS1[1]))
    assert out == [3]
    # the denominator of the degree is applied exactly, and integer
    # coordinates stay integers through a denominator-1 block
    doubled = IntertwinerMap(SOURCE, TARGET, w.blocks, {**w.dens, 0: 2 * w.dens[0]}, w.freedom)
    assert doubled.apply_block(key, [3]) == (tgt, [Fraction(3, 2)])
    plain = IntertwinerMap(SOURCE, TARGET, {key: [[5]]}, {0: 1}, w.freedom)
    _, out = plain.apply_block(key, [3])
    assert out == [15] and type(out[0]) is int
    # a block outside the source maps by zero into its shifted block
    assert w.apply_block((0, (9, 9)), [1]) == ((0, (10, 9)), [])


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
    # of any one degree, breaks commutation somewhere.
    w = solve_w(SOURCE, TARGET, 2)
    assert intertwiner._check_commutation(SOURCE, TARGET, w, 2)
    perturbed = list(_perturbed_maps(w))
    assert len(perturbed) > len(w.dens) * 2
    for label, bad in perturbed:
        assert not intertwiner._check_commutation(SOURCE, TARGET, bad, 2), label


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
    # a sweep solves w once for each window its partitions need (depth 1
    # for degrees 0 and 1, depth 2 above), and each record is the
    # partition's own report
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
    assert [args[2] for args in calls] == [1, 2]
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
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
    assert sweep_projection_chain(A1Standard(0, 1), 2).ok
    assert [args[2] for args in calls] == [1, 2]
    assert sweep_projection_chain(A1Standard(1, 1), 2).ok
    assert [args[2] for args in calls] == [1, 2]


def test_cross_model_computes_each_tensor_vector_once(monkeypatch):
    calls = []
    real = TensorModule.act_word

    def counting(self, word, vec=None):
        calls.append(tuple(word))
        return real(self, word, vec)

    monkeypatch.setattr(TensorModule, "act_word", counting)
    kind = A1Standard(1, 1)
    rep = verify_cross_model(kind, 2)
    assert rep.ok
    words = [kind.monomial_word(pi) for pi in enumerate_admissible(kind, 2)]
    assert sorted(calls) == sorted(words)
    assert rep.witness["pairs_checked"] > len(words)


def test_cross_model_agreement():
    rep = verify_cross_model(A1Standard(1, 1), 2)
    assert rep.ok
    assert rep.witness["pairs_checked"] > 0
    assert rep.witness["mismatches"] == []
