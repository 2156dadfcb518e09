"""Kernel semantics: the module action, pairing, Gram and enveloping-product
kernels and the integer rank."""

from hypothesis import given, settings, strategies as st

import oracles
from affine_basis import affine, kernels
from affine_basis.cartan import build_c2
from affine_basis.pbw import HighestWeightSpec, VermaModule, GEN_A1, GEN_C2

TABLE = build_c2()


def _make_kernel(spec):
    wt = spec.weight
    return kernels.VermaKernel(
        TABLE.bracket, TABLE.form, TABLE.sigma, wt[1], wt[0], spec.level
    )


def _sample_monomials():
    """Deterministic monomial sample touching several blocks and levels."""
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    out = []
    for degree in range(3):
        for _, blk in sorted(module.block_support(degree).items()):
            out.extend(blk.basis)
    return sorted(set(out), reverse=True)[:40]


def test_vacuum_is_normalized():
    k = _make_kernel(HighestWeightSpec(1, 0, 0))
    assert k.pair_monos((), ()) == 1
    assert k.pair_monos((), (affine.encode(-1, 9),)) == 0


def test_raising_and_cartan_action_on_vacuum():
    spec = HighestWeightSpec(0, 1, 0)  # finite weight (1, 0)
    k = _make_kernel(spec)
    # raising operators kill the highest weight vector
    for base in (5, 8, 9):
        assert k.act_le(affine.encode(0, base), ()) == {}
    for base in range(10):
        assert k.act_le(affine.encode(1, base), ()) == {}
    # Cartan elements act by the highest weight
    assert k.act_le(affine.encode(0, 6), ()) == {(): 1}  # h1 eigenvalue 1
    assert k.act_le(affine.encode(0, 4), ()) == {(): 0} or k.act_le(
        affine.encode(0, 4), ()
    ) == {}


def test_storable_factor_prepends():
    k = _make_kernel(HighestWeightSpec(1, 0, 0))
    le = affine.encode(-1, 9)
    assert k.act_le(le, ()) == {(le,): 1}
    le2 = affine.encode(-2, 9)
    assert k.act_le(le2, (le,)) == {(le2, le) if le2 >= le else (le, le2): 1}


def test_level_enters_through_the_central_term():
    # <f(-1)v, f(-1)v> = level * <e, f> + weight(h1) for the long-root pair
    for spec, expected in (
        (HighestWeightSpec(1, 0, 0), 1),   # level 1, weight 0
        (HighestWeightSpec(2, 0, 0), 2),   # level 2, weight 0
        (HighestWeightSpec(0, 1, 0), 2),   # level 1, weight(h1) = 1
    ):
        module = VermaModule(spec, gens=GEN_A1)
        f1 = module.act_word((affine.encode(-1, 0),))
        assert module.pair(f1, f1) == expected, spec


def test_adjointness_of_the_contravariant_form():
    """<x u, w> = <sigma(x) at negated mode applied to w, u-pairing>."""
    spec = HighestWeightSpec(0, 1, 0)
    k = _make_kernel(spec)
    monos = _sample_monomials()[:12]
    codes = [affine.encode(-1, 9), affine.encode(-1, 5), affine.encode(0, 3)]
    for le in codes:
        mode, base = oracles.decode(le)
        dual = affine.encode(-mode, TABLE.sigma[base])
        for u in monos:
            xu = k.act_le(le, u)
            for w in monos:
                left = sum(c * k.pair_monos(m, w) for m, c in xu.items())
                dw = k.act_le(dual, w)
                right = sum(c * k.pair_monos(u, m) for m, c in dw.items())
                assert left == right, (le, u, w)


def test_gram_is_symmetric_and_matches_pairings():
    module = VermaModule(HighestWeightSpec(0, 0, 1), gens=GEN_C2)
    monos = oracles.pbw_monomials(module.gens, module.table.weights, module.lam_wt, 2, module.lam_wt)
    g = oracles.gram(module.kernel.pair_monos, monos)
    n = len(monos)
    assert n > 1
    for i in range(n):
        for j in range(n):
            assert g[i][j] == g[j][i]
            assert g[i][j] == module.kernel.pair_mono(monos[i], {monos[j]: 1})


PAIR_KERNEL = _make_kernel(HighestWeightSpec(0, 1, 0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-2, 1), st.integers(0, 9)), max_size=4),
    st.lists(st.tuples(st.integers(-2, 0), st.integers(0, 3)), max_size=3),
)
def test_pair_monos_peels_any_word(word, probe):
    # pair_monos(word, m) peels the word's factors one by one; for a word in
    # any order (raising, Cartan and repeated factors included) it equals
    # the pairing of the straightened vector of the word with m
    k = PAIR_KERNEL
    word = tuple(affine.encode(mode, base) for mode, base in word)
    vec = k.act_word(word, {(): 1})
    probe = tuple(sorted((affine.encode(mode, base) for mode, base in probe), reverse=True))
    for m in list(vec) + [probe]:
        assert k.pair_monos(word, m) == sum(c * k.pair_monos(m2, m) for m2, c in vec.items())


def test_pair_mono_is_linear_in_the_vector():
    k = _make_kernel(HighestWeightSpec(0, 1, 0))
    m1 = (affine.encode(-1, 9),)
    m2 = (affine.encode(-1, 8),)
    probe = (affine.encode(-1, 9),)
    vec = {m1: 3, m2: -2}
    assert k.pair_mono(probe, vec) == 3 * k.pair_monos(probe, m1) - 2 * k.pair_monos(
        probe, m2
    )


def test_ukernel_straightening_swap():
    """x11(-2) x11(-1) in the enveloping algebra: commuting factors sort."""
    uk = kernels.UKernel(TABLE.bracket, TABLE.form)
    lo, hi = affine.encode(-2, 9), affine.encode(-1, 9)
    assert uk.mul_le(lo, (hi,)) == {(0, (hi, lo)): 1}
    # f(-1) e(1) straightens to e(1) f(-1) + [f, e](0) - <f, e> c
    e1, f1 = affine.encode(1, 9), affine.encode(-1, 0)
    prod = uk.mul_le(f1, (e1,))
    h0 = affine.encode(0, 6)
    assert prod == {
        (0, (e1, f1)): 1,
        (0, (h0,)): -1,
        (1, ()): -TABLE.form[0][9],
    }


def test_rank_int_on_known_matrices():
    ri = kernels.rank_int
    assert ri([]) == 0
    assert ri([[0, 0], [0, 0]]) == 0
    assert ri([[1, 2], [2, 4]]) == 1
    assert ri([[1, 2], [3, 4]]) == 2
    assert ri([[2, 0, 0], [0, 0, 5]]) == 2

