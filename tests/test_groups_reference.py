"""Differential check of ``groups.validate_group`` against
``groups_reference``, the loops it replaced.

The library codes the table once and lets ``core.from_cells`` decide the
unit laws and associativity of the one-object groupoid; on a failure it
rescans the codes to name it.  On valid groups (Z1-Z8, S3, S4 and
semidirect products), on seeded single- and triple-entry mutations of their
tables (a wrong product, a product outside the set, a missing product), on
tables with no unit, with no inverses or with an element listed twice, and
with no unit, the right unit, a wrong unit or a unit outside the set
claimed, both give the same outcome: the same elements, multiplication,
unit and inverses, or ``NotAGroup`` with the same args.
"""

import itertools
import random
import re

import pytest

import groups_reference as ref
from fibcat.groups import (
    NotAGroup,
    cyclic_group,
    inversion_action,
    semidirect,
    trivial_action,
    validate_group,
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
