"""Differential checks of ``groups`` against ``groups_reference``, the
loops its checks replaced.

The library codes the table once and lets ``core.from_cells`` decide the
unit laws and associativity of the one-object groupoid; on a failure it
rescans the codes to name it.  On valid groups (Z1-Z8, S3, S4 and
semidirect products), on seeded single- and triple-entry mutations of their
tables (a wrong product, a product outside the set, a missing product), on
tables with no unit, with no inverses or with an element listed twice, and
with no unit, the right unit, a wrong unit or a unit outside the set
claimed, both give the same outcome: the same elements, multiplication,
unit and inverses, or ``NotAGroup`` with the same args.

A homomorphism is checked by ``validate_functor`` on the groupoids, and a
twisted or strict action by one ``validate_indexed`` call.  On seeded
mutations of homomorphisms, of the twisted actions that sections of Z8 → Z4,
Z4 → Z2 and S3 → Z2 give (their ``act`` and ``phi``) and of four strict
actions, each check gives the loops' verdict, and where the indexed check
names a failing triple (``Law2Violation``), it is the loops' first.

``twisted_from_surjection`` reads the kernel, the action and phi off
``groth.straighten``; over seeded sections of Z8 → Z4, Z4 → Z2, S3 → Z2
and S4 → Z2 they are those that the conjugation and phi formulas of
``groups_reference`` give.
"""

import itertools
import random
import re

import pytest

import groups_reference as ref
from fibcat.groups import (
    Law2Violation,
    NotAGroup,
    NotAHomomorphism,
    NotAnAction,
    TwistedAction,
    cyclic_group,
    inversion_action,
    semidirect,
    symmetric_group,
    trivial_action,
    twisted_from_surjection,
    validate_group,
    validate_group_hom,
    validate_right_action,
    validate_twisted_action,
)


def _cyclic(n):
    els = [str(i) for i in range(n)]
    return els, {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}


def _symmetric(n):
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(n))]
    return perms, {(a, b): "".join(a[int(ch)] for ch in b) for a in perms for b in perms}


def _semidirect(acting, acted, action):
    G, H = cyclic_group(acting), cyclic_group(acted)
    E = semidirect(G, H, action(G, H))
    return list(E.elements), dict(E.mult)


TABLES = {"Z%d" % n: _cyclic(n) for n in range(1, 9)}
TABLES["S3"] = _symmetric(3)
TABLES["S4"] = _symmetric(4)
TABLES["Z2 x Z3"] = _semidirect(2, 3, trivial_action)
TABLES["Z2 x| Z3"] = _semidirect(2, 3, inversion_action)
TABLES["Z2 x| Z4"] = _semidirect(2, 4, inversion_action)
# a monoid without inverses, a left-zero semigroup without a unit and an
# element listed twice
TABLES["monoid"] = (["a", "b"], {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"})
TABLES["left zero"] = (["a", "b", "c"], {(x, y): x for x in "abc" for y in "abc"})
TABLES["duplicate"] = (["0", "1", "0"], _cyclic(2)[1])


def _outcome(validate, elements, mult, unit):
    try:
        made = validate(elements, mult, unit)
    except NotAGroup as exc:
        return "NotAGroup", exc.args
    if isinstance(made, tuple):
        return made
    return made.elements, made.mult, made.unit, made.inv


def _units(elements, rng):
    """No unit, each of the first two elements, another one at random and
    one outside the set."""
    return [None, *elements[:2], rng.choice(elements), "zz"]


def _mutations(elements, mult, rng, count):
    """``count`` mutated copies of ``mult``, each with one or three entries
    given a wrong product, a product outside the set or no product."""
    keys = sorted(mult)
    for k in range(count):
        table = dict(mult)
        for key in rng.sample(keys, min(len(keys), 1 if k % 2 == 0 else 3)):
            kind = rng.randrange(3)
            if kind == 0:
                table[key] = rng.choice([e for e in elements if e != mult[key]] or elements)
            elif kind == 1:
                table[key] = "zz"
            else:
                del table[key]
        yield table


def _cases(name):
    """The tables and units checked for the table ``name``: the table
    itself and 12 mutations of it, each with every unit of ``_units``."""
    elements, mult = TABLES[name]
    rng = random.Random(name)
    for table in [mult, *_mutations(elements, mult, rng, 12)]:
        for unit in _units(elements, rng):
            yield elements, table, unit


@pytest.mark.parametrize("name", sorted(TABLES))
def test_validate_group_matches_reference(name):
    for elements, table, unit in _cases(name):
        got = _outcome(validate_group, elements, table, unit)
        assert got == _outcome(ref.validate_group, elements, table, unit), (table, unit)


def _kind(args):
    """The kind of a ``NotAGroup``: the head of its tuple, or its message
    without the quoted ids."""
    return args[0][0] if isinstance(args[0], tuple) else re.sub("'[^']*'", "", args[0])


def test_cases_meet_every_error():
    """The cases above reach every ``NotAGroup`` the check raises."""
    kinds = {
        _kind(got[1])
        for name in TABLES
        for got in (_outcome(ref.validate_group, *case) for case in _cases(name))
        if got[0] == "NotAGroup"
    }
    assert kinds == {
        "duplicate elements",
        "product (, ) missing",
        "product (, ) leaves the set",
        "associativity",
        "no two-sided unit",
        "claimed unit  is not an element",
        "claimed unit fails the unit laws",
        "no inverse",
    }


def _surjections():
    """Z8 → Z4, Z4 → Z2 and S3 → Z2, each with a section that is no
    homomorphism where there is one, so that phi is not trivial."""
    Z2, Z4, Z8, S3 = cyclic_group(2), cyclic_group(4), cyclic_group(8), symmetric_group(3)
    parity = {e: "0" if e in ("012", "120", "201") else "1" for e in S3.elements}
    z8_onto_z4 = validate_group_hom(Z8, Z4, {str(i): str(i % 4) for i in range(8)})
    return {
        "Z8->Z4": (z8_onto_z4, {str(i): str(i) for i in range(4)}),
        "Z4->Z2": (validate_group_hom(Z4, Z2, {"0": "0", "1": "1", "2": "0", "3": "1"}), {"0": "0", "1": "1"}),
        "S3->Z2": (validate_group_hom(S3, Z2, parity), {"0": "012", "1": "102"}),
    }


def test_twisted_from_surjection_matches_reference():
    """Eight seeded sections with s(e) = e of each surjection, S4 → Z2 as
    well: the kernel, act and phi are those of the formulas."""
    S4 = symmetric_group(4)
    sign = {e: str(sum(a > b for i, a in enumerate(e) for b in e[i + 1 :]) % 2) for e in S4.elements}
    cases = {**_surjections(), "S4->Z2": (validate_group_hom(S4, cyclic_group(2), sign), None)}
    twisted = 0
    for name, (p, _) in sorted(cases.items()):
        E, G, rng = p.source, p.target, random.Random(name)
        for _ in range(8):
            s = {g: rng.choice([e for e in E.elements if p.mapping[e] == g]) for g in G.elements}
            s[G.unit] = E.unit
            T = twisted_from_surjection(p, s)
            assert (T.acted.elements, T.act, T.phi) == ref.twisted_from_surjection(p, s), (name, s)
            twisted += any(v != T.acted.unit for v in T.phi.values())
    assert twisted > 8


def _verdict(check, *args):
    try:
        check(*args)
    except (NotAHomomorphism, NotAnAction):
        return False
    return True


@pytest.mark.parametrize("name", sorted(_surjections()))
def test_homomorphism_check_matches_reference(name):
    """The projection and 100 seeded mutations of it, each with one or two
    images changed, one dropped or one element outside the group mapped."""
    p, _ = _surjections()[name]
    E, G, rng = p.source, p.target, random.Random(name)
    cases = [dict(p.mapping)]
    for k in range(100):
        m = dict(p.mapping)
        for a in rng.sample(E.elements, 1 + k % 2):
            m[a] = rng.choice(G.elements)
        if k % 10 == 0:
            del m[rng.choice(E.elements)]
        elif k % 10 == 1:
            m["zz"] = G.unit
        cases.append(m)
    verdicts = [_verdict(validate_group_hom, E, G, m) for m in cases]
    assert verdicts == [_verdict(ref.validate_group_hom, E, G, m) for m in cases]
    assert True in verdicts and False in verdicts


def _mutated(G, H, act, phi, rng):
    """Copies of ``act`` and ``phi`` with one or two of: an entry of some
    act[g] changed, act[g] replaced by another act[g'], an entry of phi
    changed (where phi has entries)."""
    act, phi = {g: dict(m) for g, m in act.items()}, dict(phi)
    for _ in range(rng.choice([1, 1, 2])):
        kind = rng.randrange(4 if phi else 2)
        if kind == 0:
            act[rng.choice(G.elements)][rng.choice(H.elements)] = rng.choice(H.elements)
        elif kind == 1:
            act[rng.choice(G.elements)] = dict(act[rng.choice(G.elements)])
        else:
            phi[rng.choice(sorted(phi))] = rng.choice(H.elements)
    return act, phi


def test_twisted_action_check_matches_reference():
    """150 seeded mutations of each twisted action a section gives: the
    same verdict, and a failing triple is the loops' first failing triple.
    Between them the mutations meet every kind of failure."""
    kinds = set()
    for name, (p, s) in sorted(_surjections().items()):
        T, rng = twisted_from_surjection(p, s), random.Random(name)
        G, H = T.acting, T.acted
        for _ in range(150):
            M = TwistedAction(G, H, *_mutated(G, H, T.act, T.phi, rng))
            got, want = validate_twisted_action(M), ref.validate_twisted_action(M)
            assert got.holds == want.holds, (name, M.act, M.phi)
            kinds.add(type(got.counterexample).__name__)
            if isinstance(got.counterexample, Law2Violation):
                ((triple, _),) = got.counterexample.args
                assert triple == want.law2_failures[0], (name, M.act, M.phi)
    assert kinds == {"NoneType", "Law1Violation", "Law2Violation", "NotAnAction"}


STRICT = {
    "Z2 trivially on Z3": (cyclic_group(2), cyclic_group(3), trivial_action),
    "Z2 by inversion on Z3": (cyclic_group(2), cyclic_group(3), inversion_action),
    "Z2 by inversion on Z4": (cyclic_group(2), cyclic_group(4), inversion_action),
    "S3 trivially on Z2": (symmetric_group(3), cyclic_group(2), trivial_action),
}


@pytest.mark.parametrize("name", sorted(STRICT))
def test_right_action_check_matches_reference(name):
    """The action and 100 seeded mutations of its table, each with one or
    two entries changed or actions copied over others."""
    G, H, action = STRICT[name]
    rng, act = random.Random(name), action(G, H)
    cases = [act] + [_mutated(G, H, act, {}, rng)[0] for _ in range(100)]
    verdicts = [_verdict(validate_right_action, G, H, a) for a in cases]
    assert verdicts == [_verdict(ref.validate_right_action, G, H, a) for a in cases]
    assert verdicts[0] and False in verdicts
