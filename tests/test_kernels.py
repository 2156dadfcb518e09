"""Kernel semantics: the module action, pairing, Gram and enveloping-product
kernels."""

from hypothesis import given, settings, strategies as st

import oracles
from affine_basis import affine, kernels, pbw
from affine_basis.cartan import build_c2
from affine_basis.intertwiner import TruncatedModule
from affine_basis.pbw import HighestWeightSpec, VermaModule, GEN_A1, GEN_C2
from affine_basis.verify import DerivationTable

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
        assert dict(k.act_le(affine.encode(0, base), ())) == {}
    for base in range(10):
        assert dict(k.act_le(affine.encode(1, base), ())) == {}
    # Cartan elements act by the highest weight; h2's is 0, and a zero
    # coefficient is dropped, so its action is the zero vector
    assert dict(k.act_le(affine.encode(0, 6), ())) == {(): 1}  # h1 eigenvalue 1
    assert dict(k.act_le(affine.encode(0, 4), ())) == {}


def test_storable_factor_prepends():
    k = _make_kernel(HighestWeightSpec(1, 0, 0))
    le = affine.encode(-1, 9)
    assert dict(k.act_le(le, ())) == {(le,): 1}
    le2 = affine.encode(-2, 9)
    assert dict(k.act_le(le2, (le,))) == {(le2, le) if le2 >= le else (le, le2): 1}


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
                left = sum(c * k.pair_monos(m, w) for m, c in xu)
                dw = k.act_le(dual, w)
                right = sum(c * k.pair_monos(u, m) for m, c in dw)
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
    """x11(-2) x11(-1) in U(g[t^-1]): commuting factors sort."""
    uk = kernels.UKernel(TABLE.bracket, TABLE.form)
    lo, hi = affine.encode(-2, 9), affine.encode(-1, 9)
    assert dict(uk.act_le(lo, (hi,))) == {(hi, lo): 1}
    # f(-1) e(0) straightens to e(0) f(-1) + [f, e](-1), with no central
    # term: the modes sum to -1
    e0, f1 = affine.encode(0, 9), affine.encode(-1, 0)
    assert dict(uk.act_le(f1, (e0,))) == {(e0, f1): 1, (affine.encode(-1, 6),): -1}



def _assert_pair_tuples(memo):
    """Every value of a memo {key: value} is a tuple of distinct-keyed
    (key, nonzero coefficient) pairs."""
    for value in memo.values():
        assert type(value) is tuple, type(value)
        assert all(type(t) is tuple and len(t) == 2 and t[1] for t in value), value
        assert len(dict(value)) == len(value), value


def test_memo_values_are_stored_once_as_tuples():
    # the straightening, pair, image and derivation memos keep one table
    # per outer key (a loop code, or a word for the pair memo), and each
    # result as a tuple of (key, coefficient) pairs, built once: a hit
    # returns the stored object itself, so no caller can change a memo by
    # mutating what it was handed, and the zero vector is ()
    module = VermaModule(HighestWeightSpec(0, 1, 0), gens=GEN_C2)
    module.block_support(2)  # block scans fill the straightening and pair memos
    kernel = module.kernel
    e0, f1 = affine.encode(0, 9), affine.encode(-1, 0)
    pbw.straighten((f1, e0, f1))
    model = TruncatedModule(HighestWeightSpec(0, 0, 1), 2)
    for key in model.block_keys():
        for le in (affine.encode(n, b) for n in (-1, 0, 1) for b in affine.COLOR_BASES):
            if 0 <= model.target_key(le, key)[0] <= model.max_degree:
                model.act_matrix(le, key)
    table = DerivationTable()
    elem = pbw.straighten((f1, f1))
    table.image(next(iter(elem)))

    nested = [
        (kernel._memo, kernel.act_le),
        (pbw.ukernel()._memo, pbw.ukernel().act_le),
        (model._images, model._image),
    ]
    for memo, lookup in nested:
        assert memo and all(type(inner) is dict for inner in memo.values())
        for outer, inner in memo.items():
            _assert_pair_tuples(inner)
            for k, value in list(inner.items())[:5]:
                assert lookup(outer, k) is value
    assert () in (v for inner in kernel._memo.values() for v in inner.values())
    assert kernel._pmemo and all(type(inner) is dict for inner in kernel._pmemo.values())
    assert all(type(v) is int for inner in kernel._pmemo.values() for v in inner.values())
    assert table._images
    _assert_pair_tuples(table._images)
    for mono, value in table._images.items():
        assert table.image(mono) is value
    # a tuple from the memo is the vector act_word builds from it
    for le, inner in sorted(kernel._memo.items())[:6]:
        for mono in sorted(inner)[:6]:
            assert dict(kernel.act_le(le, mono)) == kernel.act_word((le,), {mono: 1})
