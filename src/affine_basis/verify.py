"""Mechanical verifiers for the identities and rank claims behind the
combinatorial basis theorems.

Every verifier returns a StepReport: what was checked, over which inputs,
whether it held exactly, and a witness (extracted scalars, rank tables, or
the offending object on failure).  Nothing is asserted from formulas alone:
scalars are extracted from straightened expressions and reported, identities
are checked coefficient by coefficient, and passage to the irreducible
quotient always goes through the contravariant pairing.  Vectors are the
plain dicts of the pbw layer and every rank is the integer rank of a Gram
matrix (pbw.rank_int, which raises where the form is not positive).
Proportionality is tested on the integer combination b*u - a*v, so a
Fraction appears only in a witness scalar.

Each kernel result is computed once.  A family's Gram matrix pairs each
member's word with the other members' vectors through the kernel's
memoised adjoint peel (pair_mono), as the block scan does; translation's
kill check applies one more raiser to the vector it already holds.

The derivation T is the commutator action of the middle color x12 at mode 0.
On the long-root triple it acts as a chain f -> x21' -> x22 (and h -> x12)
that converts long-root monomials into color monomials; verify_t_power
certifies the conversion identity in the enveloping algebra itself.  The
DerivationTable driving t_apply is computed from the structure table but can
be mutated, which is how the negative controls poison it.  Each table
memoises the image of every monomial it is applied to; the default table is
built once per process, and a mutated copy keeps a memo of its own.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import json
import math
import operator
import time

from . import affine
from . import partitions as parts_mod
from . import pbw
from .cartan import build_c2, X12
from .pbw import VermaModule, GEN_C2, straighten, add_into


def _fmt(x):
    """Exact scalar as a short string (integers plain, rationals p/q)."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (
        f.numerator,
        f.denominator,
    )


@dataclass
class StepReport:
    step: str
    inputs: dict
    ok: bool
    witness: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json(self):
        return json.dumps(
            {
                "step": self.step,
                "inputs": self.inputs,
                "ok": self.ok,
                "witness": self.witness,
                "seconds": round(self.seconds, 6),
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# the derivation and its powers
# ---------------------------------------------------------------------------


class DerivationTable:
    """Single-generator replacement table of the derivation: base index ->
    tuple of (coeff, base).  Built from the bracket with x12; the mutate()
    hook returns a poisoned copy for negative controls.  Each table memoises
    the image of every monomial it has been applied to (image), so a
    straightened replaced word is computed once per table; a mutated copy
    starts with an empty memo of its own."""

    def __init__(self, action=None):
        if action is None:
            table = build_c2()
            action = {b: tuple(table.bracket[X12][b]) for b in range(10)}
        self.action = action
        self._images = {}

    def mutate(self, base, new_terms):
        action = dict(self.action)
        action[base] = tuple(new_terms)
        return DerivationTable(action)

    def image(self, mono):
        """The derivation's image of one normal-ordered monomial, by the
        Leibniz rule: {(central_exponent, monomial): int}, each replaced
        word straightened.  The mode of each factor is preserved; only the
        base changes, through the table.  Memoised on the table."""
        out = self._images.get(mono)
        if out is None:
            out = {}
            for pos, le in enumerate(mono):
                mode = le >> 4
                for cf, b2 in self.action[le & 15]:
                    word = mono[:pos] + (affine.encode(mode, b2),) + mono[pos + 1 :]
                    add_into(out, straighten(word), cf)
            self._images[mono] = out
        return out


_TABLE = None


def _default_table():
    """The derivation table of the structure table, built once per process
    (as pbw.ukernel is), so its image memo serves every t_apply."""
    global _TABLE
    if _TABLE is None:
        _TABLE = DerivationTable()
    return _TABLE


def t_apply(elem, table=None):
    """Apply the derivation to a straightened enveloping-algebra element:
    the sum of coeff * table.image(mono) over its terms, each image's
    central exponent shifted by the term's.  `table` defaults to the
    process-wide _default_table()."""
    if table is None:
        table = _default_table()
    out = {}
    for (dc, mono), coeff in elem.items():
        for (dc2, m2), c2 in table.image(mono).items():
            k = (dc + dc2, m2)
            cc = out.get(k, 0) + coeff * c2
            if cc:
                out[k] = cc
            else:
                out.pop(k, None)
    return out


def verify_t_power(pi, table=None):
    """Certify that the n'-th derivation power converts the long-root
    monomial of pi into a nonzero multiple of its color monomial, and that
    one more application kills it.  The scalar is extracted, not assumed;
    the witness is it over n'!.  Only the partition enters: every kind
    gives it the same report."""
    t0 = time.perf_counter()
    n_prime = pi.n_prime()
    elem = straighten(parts_mod.long_root_word(pi))
    for _ in range(n_prime):
        elem = t_apply(elem, table)
    target = straighten(parts_mod.color_word(pi))
    scalar = _proportionality(elem, target)
    lam = None
    ok = scalar is not None and scalar != 0
    if ok:
        lam = Fraction(scalar, math.factorial(n_prime))
    vanish = t_apply(elem, table) if ok else None
    if ok:
        ok = not vanish
    return StepReport(
        step="t_power",
        inputs={"partition": pi.to_dict(), "n_prime": n_prime},
        ok=bool(ok),
        witness={
            "scalar": _fmt(lam) if lam is not None else None,
            "next_power_vanishes": (not vanish) if vanish is not None else None,
        },
        seconds=time.perf_counter() - t0,
    )


def _proportionality(u, v, is_zero=operator.not_):
    """Scalar s with u == s * v, for vectors held as dicts of coefficients:
    with a = u[key] and b = v[key] != 0 read off one term of v, b*u - a*v
    must satisfy is_zero (by default, every coefficient vanishes;
    translation passes the module's zero_in_quotient), and s = a / b.  The
    nonzero scale b changes neither zero-ness, nor homogeneity, nor the
    sign of the norm, and keeps a Fraction out of the difference vector.
    None if v is empty or the two are not proportional."""
    if not v:
        return None
    key = next(iter(v))
    a, b = u.get(key, 0), v[key]
    diff = add_into({m: b * c for m, c in u.items()}, v, -a)
    return Fraction(a) / b if is_zero(diff) else None


# ---------------------------------------------------------------------------
# translation identity
# ---------------------------------------------------------------------------


def verify_translation(kind, pi, module=None):
    """Certify, inside the level (k0, k1) module, that applying the mode-0
    middle color n(pi) times to the long-root monomial vector yields a
    nonzero multiple of the color monomial of pi with its mode-0 block
    converted to x21'(0) factors, and that n(pi)+1 applications kill the
    vector.  Equality is checked in the Verma module first and through the
    contravariant norm when needed.  No block basis is built."""
    t0 = time.perf_counter()
    if module is None:
        module = VermaModule(kind.spec(), gens=GEN_C2)
    n = pi.n_of()
    word = kind.monomial_word(pi)
    raiser = (affine.encode(0, X12),)
    u = module.act_word(raiser * n + word)
    cand = module.act_word(parts_mod.translated_color_word(pi))
    mu = _proportionality(u, cand, module.zero_in_quotient)
    ok = mu is not None and mu != 0
    killed = None
    if ok:
        killed = module.zero_in_quotient(module.act_word(raiser, u))
        ok = killed
    return StepReport(
        step="translation",
        inputs={"partition": pi.to_dict(), "labels": list(kind.as_tuple()), "n": n},
        ok=bool(ok),
        witness={"mu": _fmt(mu) if mu is not None else None, "killed": killed},
        seconds=time.perf_counter() - t0,
    )


def verify_c0_nonvanishing(kind, cache_dir=None):
    """Certify the mode-0 string: x21'(0)^c applied to the highest weight
    vector is nonzero in the quotient exactly for c <= k1.  Each c is
    decided by module.zero_in_quotient, as translation decides its vectors:
    the form is positive definite on the quotient, so the norm decides,
    and a negative norm raises ArithmeticError.  The witness lists the
    norms.  No block basis is built, so `cache_dir` is neither read nor
    created; it stays because the CLI and the benchmark pass it to every
    verifier."""
    t0 = time.perf_counter()
    module = VermaModule(kind.spec(), gens=GEN_C2)
    k1 = kind.spec().k1
    norms = []
    ok = True
    for c in range(k1 + 2):
        vec = {(affine.encode(0, 3),) * c: 1}
        norms.append(module.pair(vec, vec))
        if module.zero_in_quotient(vec) == (c <= k1):
            ok = False
    return StepReport(
        step="c0_nonvanishing",
        inputs={"labels": list(kind.as_tuple()), "k1": k1},
        ok=ok,
        witness={"norms": [_fmt(x) for x in norms]},
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# rank sweeps: independence and spanning
# ---------------------------------------------------------------------------


def _group_by_block(kind, module, pis):
    """{(degree, weight): ([pi], [monomial word])} of the families, each
    partition's word kept beside it."""
    groups = {}
    for pi in pis:
        word = kind.monomial_word(pi)
        key = (affine.word_degree(word), module.abs_weight(word))
        members, words = groups.setdefault(key, ([], []))
        members.append(pi)
        words.append(word)
    return dict(sorted(groups.items()))


def _family_gram(module, words, vecs):
    """Integer Gram matrix of a family given by its words and their vectors
    (vecs[j] = words[j] . v): entry (i, j) pairs the word words[i] with the
    vector vecs[j] through the kernel's adjoint peel (pair_mono, memoised
    on (suffix, monomial))."""
    pair = module.kernel.pair_mono
    n = len(vecs)
    g = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1):
            val = pair(words[i], vecs[j])
            g[i][j] = val
            g[j][i] = val
    return g


def _family_rank(module, words):
    """(Gram matrix, Gram rank) of the monomial vectors of a family."""
    gram = _family_gram(module, words, [module.act_word(word) for word in words])
    return gram, pbw.rank_int(gram)


def _independence_block(module, key, pis, words):
    gram, rank = _family_rank(module, words)
    entry = {
        "degree": key[0],
        "weight": list(key[1]),
        "count": len(pis),
        "rank": rank,
    }
    if rank != len(pis):
        entry["dependent_subset"] = _minimal_dependent(gram, pis)
    return entry


def _minimal_dependent(gram, pis):
    """Tags of a minimal dependent subfamily of a dependent family, given
    its integer Gram matrix: one pass over the members drops each one whose
    removal leaves the Gram rank below the size.  One pass suffices: a
    member kept once stays needed, since dropping it from a smaller family
    leaves a subfamily of an independent one."""
    support = list(range(len(pis)))
    for i in range(len(pis)):
        trial = [j for j in support if j != i]
        if pbw.rank_int([[gram[a][b] for b in trial] for a in trial]) < len(trial):
            support = trial
    return [pis[i].tag() for i in support]


def verify_independence(kind, max_degree, cache_dir=None):
    """Certify that the admissible monomial vectors are linearly independent
    in the irreducible quotient, block by block: the Gram rank of each block
    family must equal its size.  The admissible vectors are paired with each
    other directly and no block basis is built, so `cache_dir` is not read
    or written (nor created); the parameter stays for callers that pass the
    same arguments to every verifier."""
    t0 = time.perf_counter()
    module = kind.module()
    pis = parts_mod.enumerate_admissible(kind, max_degree)
    entries = [
        _independence_block(module, key, group, words)
        for key, (group, words) in _group_by_block(kind, module, pis).items()
    ]
    ok = all(e["count"] == e["rank"] for e in entries)
    return StepReport(
        step="independence",
        inputs=dict(kind.report_inputs(max_degree), families=len(pis)),
        ok=ok,
        witness={"blocks": entries},
        seconds=time.perf_counter() - t0,
    )


def verify_spanning(kind, max_degree, cache_dir=None):
    """Certify that the admissible families span every block of the target
    space up to max_degree: the Gram rank of the admissible family equals
    the block dimension (the block_support rank, 0 where it reached none).
    Together with verify_independence this certifies the basis property."""
    t0 = time.perf_counter()
    module = kind.module(cache_dir)
    support = module.block_support(max_degree)
    pis = parts_mod.enumerate_admissible(kind, max_degree)
    groups = _group_by_block(kind, module, pis)
    keys = sorted(set(support) | set(groups))
    entries = []
    ok = True
    for key in keys:
        dim = support[key].rank if key in support else 0
        group, words = groups.get(key, ([], []))
        _, adm_rank = _family_rank(module, words)
        entry = {
            "degree": key[0],
            "weight": list(key[1]),
            "dimension": dim,
            "admissible_count": len(group),
            "admissible_rank": adm_rank,
        }
        if adm_rank != dim:
            ok = False
            entry["deficit"] = dim - adm_rank
        entries.append(entry)
    return StepReport(
        step="spanning",
        inputs=kind.report_inputs(max_degree),
        ok=ok,
        witness={"blocks": entries},
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# initial-condition propagation
# ---------------------------------------------------------------------------


def _sweep(step, kind, max_degree, check, field):
    """check(pi) over every admissible partition up to max_degree, as one
    report timed as a whole, with a record of ok and witness `field` per
    partition.  Each sweep's check looks its verifier up on its module at
    call time, so a wrapper installed there sees every partition."""
    t0 = time.perf_counter()
    results = []
    for pi in parts_mod.enumerate_admissible(kind, max_degree):
        rep = check(pi)
        results.append({"partition": pi.tag(), "ok": rep.ok, field: rep.witness.get(field)})
    return StepReport(
        step=step,
        inputs=kind.report_inputs(max_degree),
        ok=all(r["ok"] for r in results),
        witness={"partitions": results},
        seconds=time.perf_counter() - t0,
    )


def sweep_t_power(kind, max_degree, table=None):
    """verify_t_power over every admissible partition up to max_degree,
    aggregated into one report (witness lists each extracted scalar)."""
    return _sweep(
        "t_power_sweep", kind, max_degree, lambda pi: verify_t_power(pi, table), "scalar"
    )


def sweep_translation(kind, max_degree, cache_dir=None):
    """verify_translation over every admissible partition up to max_degree,
    sharing one module instance, aggregated into one report (witness lists
    each mu).  No block basis is built, so `cache_dir` is neither read nor
    created; it stays because the CLI and the benchmark pass it to every
    verifier."""
    module = VermaModule(kind.spec(), gens=GEN_C2)
    return _sweep(
        "translation_sweep",
        kind,
        max_degree,
        lambda pi: verify_translation(kind, pi, module=module),
        "mu",
    )


def verify_icprop(kind, max_degree):
    """Certify combinatorially that splitting the mode-0 block off an
    admissible partition lands in an admissible family for the smaller
    labels (k0, k1 - c0, c0) of the principal-subspace kind."""
    t0 = time.perf_counter()
    entries = []
    ok = True
    for pi in parts_mod.enumerate_admissible(kind, max_degree):
        target = parts_mod.ic_propagation(pi, kind)
        pi1, c0 = pi.split_c0()
        sub = parts_mod.C2FS(*target)
        good = sub.admissible(pi1)
        if not good:
            ok = False
            entries.append({"partition": pi.tag(), "target": list(target)})
    return StepReport(
        step="icprop",
        inputs=kind.report_inputs(max_degree),
        ok=ok,
        witness={"violations": entries},
        seconds=time.perf_counter() - t0,
    )
