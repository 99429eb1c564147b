"""Reference group check: ``validate_group`` as it was before the group
became its one-object groupoid, checking closure, associativity, the unit
and inverses with its own loops over the string table.

It is kept only as the oracle for the differential in
``test_groups_reference.py`` and imports nothing private from ``fibcat``,
so it shares no code with the check it tests.  It returns the elements,
the table, the unit and the inverses that the library's ``GroupTable``
held then.
"""

from __future__ import annotations

from fibcat.groups import NotAGroup


def validate_group(elements, mult, unit=None):
    """Check closure, associativity, the unit (found when not given) and
    inverses of ``mult``, a map (a, b) -> ab.  Elements are strings."""
    els = tuple(sorted(elements))
    if len(set(els)) != len(els):
        raise NotAGroup("duplicate elements")
    table = dict(mult)
    for a in els:
        for b in els:
            c = table.get((a, b))
            if c is None:
                raise NotAGroup("product (%r, %r) missing" % (a, b))
            if c not in set(els):
                raise NotAGroup("product (%r, %r) leaves the set" % (a, b))
    for a in els:
        for b in els:
            for c in els:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise NotAGroup(("associativity", a, b, c))
    if unit is None:
        unit = next(
            (e for e in els if all(table[(e, a)] == a == table[(a, e)] for a in els)),
            None,
        )
        if unit is None:
            raise NotAGroup("no two-sided unit")
    else:
        if unit not in els:
            raise NotAGroup("claimed unit %r is not an element" % (unit,))
        if not all(table[(unit, a)] == a == table[(a, unit)] for a in els):
            raise NotAGroup("claimed unit fails the unit laws")
    inv = {}
    for a in els:
        for b in els:
            if table[(a, b)] == unit and table[(b, a)] == unit:
                inv[a] = b
                break
        else:
            raise NotAGroup(("no inverse", a))
    return els, table, unit, inv
