"""The finite structure table against the independent matrix oracle."""

import itertools

import pytest

import oracles
from affine_basis import cartan


TABLE = cartan.build_c2()


def bracket_dict(i, j):
    return {k: c for c, k in TABLE.bracket[i][j]}


def test_matrix_realization_matches_oracle():
    assert cartan.MATRICES == oracles.BASIS


def test_every_basis_matrix_is_symplectic():
    for m in cartan.MATRICES:
        assert oracles.in_sp4(m)


def test_bracket_table_matches_matrix_commutators_entrywise():
    for i in range(10):
        for j in range(10):
            assert bracket_dict(i, j) == oracles.bracket_coeffs(i, j), (i, j)


def test_form_table_matches_trace_form():
    for i in range(10):
        for j in range(10):
            assert TABLE.form[i][j] == oracles.form_value(i, j), (i, j)


def _bracket_vec(u, v):
    """[u, v] for dense coefficient vectors, through the table."""
    out = [0] * 10
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in enumerate(v):
            if not cj:
                continue
            for c, k in TABLE.bracket[i][j]:
                out[k] += ci * cj * c
    return out


def test_jacobi_identity_exhaustive():
    for i, j, k in itertools.product(range(10), repeat=3):
        ei = [int(t == i) for t in range(10)]
        ej = [int(t == j) for t in range(10)]
        ek = [int(t == k) for t in range(10)]
        total = _bracket_vec(ei, _bracket_vec(ej, ek))
        t2 = _bracket_vec(ej, _bracket_vec(ek, ei))
        t3 = _bracket_vec(ek, _bracket_vec(ei, ej))
        assert all(a + b + c == 0 for a, b, c in zip(total, t2, t3)), (i, j, k)


def test_form_invariance_exhaustive():
    for i, j, k in itertools.product(range(10), repeat=3):
        left = sum(c * TABLE.form[t][k] for c, t in TABLE.bracket[i][j])
        right = sum(c * TABLE.form[j][t] for c, t in TABLE.bracket[i][k])
        assert left + right == 0, (i, j, k)


def test_form_is_symmetric():
    for i in range(10):
        for j in range(10):
            assert TABLE.form[i][j] == TABLE.form[j][i]


def test_weights_are_ad_eigenvalues():
    for h, coord in ((cartan.H1, 0), (cartan.H2, 1)):
        for i in range(10):
            expected = {i: TABLE.weights[i][coord]} if TABLE.weights[i][coord] else {}
            assert bracket_dict(h, i) == expected


def test_cartan_elements_have_weight_zero_and_commute():
    assert TABLE.weights[cartan.H1] == (0, 0)
    assert TABLE.weights[cartan.H2] == (0, 0)
    assert bracket_dict(cartan.H1, cartan.H2) == {}
    assert oracles.CARTAN == (cartan.H1, cartan.H2)
    assert sum(any(TABLE.weights[i]) for i in range(10)) == 8  # the root vectors


def test_sigma_is_the_matrix_transpose():
    for i in range(10):
        assert cartan.MATRICES[TABLE.sigma[i]] == oracles.transpose(cartan.MATRICES[i])


def test_sigma_is_an_involution_fixing_the_cartan():
    for i in range(10):
        assert TABLE.sigma[TABLE.sigma[i]] == i
        wi = TABLE.weights[i]
        ws = TABLE.weights[TABLE.sigma[i]]
        assert ws == (-wi[0], -wi[1])
    assert TABLE.sigma[cartan.H1] == cartan.H1
    assert TABLE.sigma[cartan.H2] == cartan.H2


def test_decompose_roundtrip_and_rejection():
    for i, m in enumerate(cartan.MATRICES):
        coords = cartan.decompose(m)
        assert coords == [int(t == i) for t in range(10)]
    with pytest.raises(ValueError):
        cartan.decompose(oracles.e(0, 0))  # not symplectic
    with pytest.raises(ValueError):
        cartan.decompose(oracles.e(0, 1))  # half of a short root vector


def test_table_hash_and_sigma_are_stable():
    # every disk-cache key hashes the table, so its hash is pinned, not only
    # compared between two builds of the same code
    fresh = cartan.StructureTable()
    assert cartan.table_hash(fresh) == cartan.table_hash(TABLE)
    assert cartan.table_hash(cartan.build_c2()) == "5cf1a6d54f9891b0"
    assert TABLE.sigma[cartan.X11] == cartan.X1B1B


def test_build_c2_is_shared():
    assert cartan.build_c2() is TABLE


def test_root_and_weight_constants():
    assert cartan.inner(oracles.THETA, oracles.THETA) == 2
    assert cartan.inner(oracles.ALPHA1, oracles.ALPHA1) == 1  # short root
    assert cartan.inner(oracles.ALPHA2, oracles.ALPHA2) == 2  # long root
    # Cartan matrix from coroot pairings
    assert oracles.coroot_pairing(oracles.ALPHA1, oracles.ALPHA1) == 2
    assert oracles.coroot_pairing(oracles.ALPHA1, oracles.ALPHA2) == -1
    assert oracles.coroot_pairing(oracles.ALPHA2, oracles.ALPHA1) == -2
    assert oracles.coroot_pairing(oracles.ALPHA2, oracles.ALPHA2) == 2
    # fundamental weights are dual to the simple coroots
    for w, pairs in (
        (oracles.OMEGA1, (1, 0)),
        (cartan.OMEGA2, (0, 1)),
    ):
        assert oracles.coroot_pairing(w, oracles.ALPHA1) == pairs[0]
        assert oracles.coroot_pairing(w, oracles.ALPHA2) == pairs[1]
    assert cartan.finite_weight(2, 3) == (5, 3)
    assert cartan.finite_weight(1, 0) == oracles.OMEGA1
    # the highest root is the weight of the top basis element
    assert TABLE.weights[cartan.X11] == oracles.THETA


def test_long_root_triple_is_a_standard_sl2():
    f, h, e = cartan.a1_subalgebra()
    assert (f, h, e) == (cartan.X1B1B, cartan.H1, cartan.X11)
    assert bracket_dict(h, e) == {e: 2}
    assert bracket_dict(h, f) == {f: -2}
    assert bracket_dict(e, f) == {h: 1}
    assert TABLE.form[e][f] == 1
    assert TABLE.form[h][h] == 2
