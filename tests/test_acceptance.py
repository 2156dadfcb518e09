"""End-to-end acceptance criteria.

Nine checks covering the whole pipeline, each with a pinned wall-clock
budget.  Every test prints (and records for the terminal summary) one line

    criterion N: PASS|FAIL (T s)  description

so a run of this file doubles as the certification ledger.  All arithmetic
is exact; the budgets are generous upper bounds meant to catch accidental
blowups, not to benchmark.
"""

import itertools
import time

import oracles
from conftest import record_criterion

from affine_basis import affine, pbw, verify
from affine_basis.cartan import build_c2
from affine_basis.intertwiner import (
    sweep_projection_chain,
    verify_cross_model,
    verify_intertwiner,
    verify_projection_chain,
)
from affine_basis.partitions import (
    A1Standard,
    C2FS,
    ColoredPartition,
    enumerate_admissible,
)
from affine_basis.pbw import GEN_A1, GEN_C2, HighestWeightSpec, VermaModule
from affine_basis.verify import (
    DerivationTable,
    sweep_t_power,
    sweep_translation,
    verify_icprop,
    verify_independence,
    verify_spanning,
    verify_t_power,
)

A1_KINDS_LEVEL2 = (
    A1Standard(1, 0),
    A1Standard(0, 1),
    A1Standard(1, 1),
    A1Standard(2, 0),
    A1Standard(0, 2),
)

FS_KINDS_LEVEL2 = tuple(
    C2FS(k0, k1, k2)
    for k0, k1, k2 in itertools.product(range(3), repeat=3)
    if 1 <= k0 + k1 + k2 <= 2
)


def test_criterion_1_algebra_soundness():
    t0 = time.perf_counter()
    table = build_c2()
    ok = True

    def bracket(i, j):
        return {k: c for c, k in table.bracket[i][j]}

    # the abstract table equals the 4x4 matrix-commutator oracle entrywise
    for i in range(10):
        for j in range(10):
            ok = ok and bracket(i, j) == oracles.bracket_coeffs(i, j)
            ok = ok and table.form[i][j] == oracles.form_value(i, j)

    # Jacobi identity and invariance of the form, exhaustive over the basis
    for i, j, k in itertools.product(range(10), repeat=3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for c1, t in table.bracket[b][c]:
                for c2, u in table.bracket[a][t]:
                    acc[u] = acc.get(u, 0) + c1 * c2
        ok = ok and not any(acc.values())
        left = sum(c * table.form[t][k] for c, t in table.bracket[i][j])
        right = sum(c * table.form[j][t] for c, t in table.bracket[i][k])
        ok = ok and left + right == 0

    record_criterion(
        1,
        ok,
        time.perf_counter() - t0,
        1.0,
        "finite algebra: Jacobi + invariant form exhaustive; "
        "table == matrix commutators",
    )


def test_criterion_2_level_one_tops():
    t0 = time.perf_counter()
    expected = {
        (1, 0, 0): {(0, 0): 1},
        (0, 1, 0): {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1},
        (0, 0, 1): {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): 1},
    }
    ok = True
    for labels, weights in expected.items():
        module = VermaModule(HighestWeightSpec(*labels), gens=GEN_C2)
        support = module.block_support(0)
        got = {w: blk.rank for (d, w), blk in support.items() if d == 0}
        ok = ok and got == weights
        ok = ok and sum(got.values()) == sum(weights.values())
    record_criterion(
        2,
        ok,
        time.perf_counter() - t0,
        5.0,
        "degree-0 slices of the three level-1 modules: dims 1, 4, 5 "
        "with exact weight lists",
    )


def test_criterion_3_character_cross_check(session_cache):
    t0 = time.perf_counter()
    kind = A1Standard(1, 0)
    counts = [0] * 7
    for pi in enumerate_admissible(kind, 6):
        counts[pi.degree] += 1
    module = kind.module(session_cache)
    dims = oracles.dims_by_degree(module, 6)
    lattice = list(oracles.A1_LEVEL1_DIMS)
    ok = counts == dims == lattice
    ok = ok and counts[1] == 3 and counts[2] == 4
    # per-block: the weight-2m slice at degree d has dimension p(d - m^2)
    for d in range(7):
        for m in range(-2, 3):
            got = module.block_basis(d, (2 * m, 0)).rank
            ok = ok and got == oracles.a1_level1_block_dim(d, m)
    record_criterion(
        3,
        ok,
        time.perf_counter() - t0,
        120.0,
        "level-1 vacuum character, degrees 0..6: admissible counts == "
        "Gram ranks == lattice coefficients (1,3,4,7,13,19,29)",
    )


def test_criterion_4_long_root_basis_certification(session_cache):
    t0 = time.perf_counter()
    ok = True
    for kind in A1_KINDS_LEVEL2:
        rep_i = verify_independence(kind, 4, session_cache)
        rep_s = verify_spanning(kind, 4, session_cache)
        ok = ok and rep_i.ok and rep_s.ok
    record_criterion(
        4,
        ok,
        time.perf_counter() - t0,
        600.0,
        "long-root kinds (1,0),(0,1),(1,1),(2,0),(0,2): independence + "
        "spanning up to degree 4",
    )


def test_criterion_5_principal_subspace_independence(session_cache):
    t0 = time.perf_counter()
    ok = True
    for kind in FS_KINDS_LEVEL2:
        rep = verify_independence(kind, 4, session_cache)
        ok = ok and rep.ok
    record_criterion(
        5,
        ok,
        time.perf_counter() - t0,
        600.0,
        "principal-subspace kinds, levels 1-2: independence up to degree 4",
    )


def test_criterion_6_proof_step_identities(session_cache):
    t0 = time.perf_counter()
    ok = True
    for kind in A1_KINDS_LEVEL2:
        rep_t = sweep_t_power(kind, 3)
        ok = ok and rep_t.ok
        ok = ok and all(
            e["scalar"] not in (None, "0") for e in rep_t.witness["partitions"]
        )
        rep_tr = sweep_translation(kind, 3, session_cache)
        ok = ok and rep_tr.ok
        rep_ic = verify_icprop(kind, 3)
        ok = ok and rep_ic.ok
    record_criterion(
        6,
        ok,
        time.perf_counter() - t0,
        600.0,
        "all admissible partitions, degree <= 3, levels <= 2: derivation "
        "power conversion (nonzero scalar, next power kills), translation "
        "identity with its vanishing clause, mode-0 label propagation",
    )


def test_criterion_7_intertwiner_certificates(session_cache):
    t0 = time.perf_counter()
    ok = True
    for depth in range(4):
        rep = verify_intertwiner(depth, session_cache)
        ok = ok and rep.ok
        ok = ok and all(v == 0 for v in rep.witness["freedom"].values())
    for kind in (A1Standard(0, 1), A1Standard(1, 1), A1Standard(0, 2)):
        rep = sweep_projection_chain(kind, 2, session_cache)
        ok = ok and rep.ok
    # the annihilation clause is exercised explicitly: one application more
    # than the mode-0 block kills the vector
    rep = verify_projection_chain(
        A1Standard(0, 2), ColoredPartition.of(c={0: 1}), session_cache
    )
    ok = ok and rep.ok and rep.witness["higher_killed"] == [True]
    record_criterion(
        7,
        ok,
        time.perf_counter() - t0,
        600.0,
        "intertwiner solved and certified at windows 0..3 (unique, top "
        "killed, commutes); projection chain absorbs mode-0 blocks and "
        "higher applications annihilate",
    )


def test_criterion_8_cross_model_consistency(session_cache):
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for kind in A1_KINDS_LEVEL2:
        rep = verify_cross_model(kind, 3, session_cache)
        ok = ok and rep.ok and not rep.witness["mismatches"]
        pairs += rep.witness["pairs_checked"]
    ok = ok and pairs > 0
    record_criterion(
        8,
        ok,
        time.perf_counter() - t0,
        600.0,
        "tensor-model pairings equal Verma-engine pairings on all "
        "admissible pairs, levels <= 2, degree <= 3 (%d pairs)" % pairs,
    )


def test_criterion_9_negative_controls(session_cache):
    t0 = time.perf_counter()
    ok = True

    # (a) appending any single difference-condition violator to the
    # admissible family of its block drops the Gram rank below the count
    violators_seen = 0
    for kind in (A1Standard(1, 0), A1Standard(0, 1)):
        module = kind.module(session_cache)
        admissible = enumerate_admissible(kind, 3)
        by_block = {}
        for pi in admissible:
            word = kind.monomial_word(pi)
            key = (affine.word_degree(word), module.abs_weight(word))
            by_block.setdefault(key, []).append(pi)
        for a, b, c in oracles.brute_force_colored(3, 3):
            pi = ColoredPartition(a=a, b=b, c=c)
            if not kind.satisfies_ic(pi):
                continue
            from affine_basis.partitions import satisfies_dc

            if satisfies_dc(pi, kind.level):
                continue
            violators_seen += 1
            word = kind.monomial_word(pi)
            key = (affine.word_degree(word), module.abs_weight(word))
            family = by_block.get(key, []) + [pi]
            words = [kind.monomial_word(q) for q in family]
            vecs = [module.act_word(w) for w in words]
            gram = verify._family_gram(module, words, vecs)
            rank = pbw.rank_int([[int(x) for x in row] for row in gram])
            ok = ok and rank < len(family)
    ok = ok and violators_seen > 0

    # (b) poisoning the derivation table makes the power verifier fail,
    # with the offending partition named in the witness
    failures = 0
    for base in (0, 6):
        broken = DerivationTable().mutate(base, ())
        rep = sweep_t_power(A1Standard(1, 0), 3, broken)
        ok = ok and not rep.ok
        bad = [e for e in rep.witness["partitions"] if not e["ok"]]
        ok = ok and bool(bad)
        failures += len(bad)
        single = verify_t_power(
            ColoredPartition.of(c={1: 1}) if base == 0 else ColoredPartition.of(b={1: 1}),
            broken,
        )
        ok = ok and not single.ok and single.witness["scalar"] is None
    record_criterion(
        9,
        ok,
        time.perf_counter() - t0,
        600.0,
        "negative controls: %d difference-condition violators each force a "
        "rank deficit; %d poisoned-table failures carry witnesses"
        % (violators_seen, failures),
    )
