"""Differential check of ``validate_category`` and ``assemble`` in
``fibcat.core`` against ``core_reference``, the construction they replaced:
a string table per category, re-interned and re-checked by the
per-(a, b, c, d) sweep.

Through ``category_from_json``, the path of every category file to
``validate_category``: on a corpus of valid categories, on seeded
single-entry mutations of each (a wrong composite in the right hom-set, a
composite in the wrong hom-set, a deleted pair) and on hand-built tables
whose first error a batched sweep could misreport, both give the same
outcome: the same ``FinCat`` fields, or the same exception class with the
same args.  The table is compared as a dict.  The composition columns of a
file are coded and checked as arrays, so their mutations (an unknown id in
each column, a pair that is not composable, a pair listed twice, a wrong
identity composite) are checked too, with the exit code of ``fibcat
validate``.

Through ``assemble`` and ``from_parts``: every library build below also
runs the reference ``assemble`` on the same blocks, a block composer
decoded into the reference's per-composite one and a listing by parts
composed factor by factor through the factors' string tables, and must give
the same fields; the library lists its table in cell order (see
``cell_order``), whatever the order of the blocks and payloads, and so
exactly as the category's file, read back, does.  The builders that list
parts (products, powers, slices, arrow and relation categories) and
``group_as_category`` also equal the reference builders of
``core_reference``, which find every triangle, square and composite through
the string table, on fixed categories and on the small seeded ones.

The numpy composer of FI, FI_G and coloured FI is checked, for every
composable pair of blocks, against the reference formulas one composite at a
time; and its mutations are caught like a mutated table: a position outside
the target block raises ``CompositeEndpointViolation``, a wrong position
inside it the ``UnitViolation`` or ``AssociativityViolation`` that the
equally mutated table raises through ``category_from_json``.

The total category of the Grothendieck construction, which fills its
cells without ``assemble``, is checked cell by cell against
``grothendieck_composite``, with the morphisms listed in the same order: on
valid indexed categories, where the builders above include three totals,
and on hand-built ones that skip ``validate_indexed``, where both give the
same first error in cell order, or the same total.
"""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

import core_reference as ref
import random_categories as rm
from fibcat import CategoryError, core, generators, groth, groups, grothendieck, indexed
from fibcat.cli import main
from fibcat.core import (
    AssociativityViolation,
    CompositeEndpointViolation,
    MissingComposite,
    MissingIdentity,
    NonComposablePairInTable,
    UnitViolation,
    UnknownMorphism,
)
from fibcat.ioformats import InputFormatError, category_from_json
from fibcat.groups import cyclic_group, group_as_category, symmetric_group
from fibcat.indexed import restrict_to_aut

FIELDS = (
    "objects",
    "morphisms",
    "src",
    "tgt",
    "identity",
    "homs",
    "inverses",
    "identity_morphisms",
    "table",
)


def fields(C):
    return tuple(getattr(C, name) for name in FIELDS)


def cell_order(C):
    """The pairs of ``C.table`` in cell order: by the hom-set and id of the
    first morphism, then the target and id of the second."""
    src, tgt = C.src, C.tgt
    return sorted(C.table, key=lambda p: (src[p[0]], tgt[p[0]], p[0], tgt[p[1]], p[1]))


def outcome(build, *args):
    try:
        return fields(build(*args))
    except CategoryError as exc:
        return (type(exc), exc.args)


def raw(C, table):
    """``validate_category`` arguments: the ids of ``C`` with ``table``."""
    morphisms = [(m, C.src[m], C.tgt[m]) for m in C.morphisms]
    return C.objects, morphisms, dict(C.identity), table


def document(objects, morphisms, identity, entries):
    """The category file of these ids, listing the (first, then, equals)
    triples ``entries`` in order as its composition."""
    return {
        "objects": list(objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in morphisms],
        "identities": dict(identity),
        "composition": [{"first": f, "then": g, "equals": h} for f, g, h in entries],
    }


def read(objects, morphisms, identity, table):
    """The library's outcome on the file of a reference argument list."""
    entries = [(f, g, h) for (f, g), h in table.items()]
    return outcome(category_from_json, document(objects, morphisms, identity, entries))


def library(C, table):
    return read(*raw(C, table))


def oracle(C, table):
    return outcome(ref.validate_category, *raw(C, table))


@pytest.fixture(scope="module")
def chain6_squared():
    chain6 = generators.chain_poset(6)
    return generators.product_category(chain6, chain6)


@pytest.fixture(scope="module")
def arrow_fi2(fi2):
    return generators.arrow_category(fi2)


@pytest.fixture(scope="module")
def fi_z2_2_total():
    return grothendieck(generators.indexed_gpow(cyclic_group(2), 2)).total


@pytest.fixture(scope="module")
def blocks_3_1_total():
    return grothendieck(generators.block_perm_indexed(3, 1)).total


@pytest.fixture(scope="module")
def z5():
    return group_as_category(cyclic_group(5))


@pytest.fixture(scope="module")
def s3_category():
    return group_as_category(symmetric_group(3))


# z5 and S3 have no morphism that is not a composite of two non-identities,
# so Light's test takes its whole generating set from the greedy step.
CATEGORIES = [
    "fi3",
    "fi4",
    "chain6_squared",
    "arrow_fi2",
    "fi_z2_2_total",
    "fi_z2_2_direct",
    "blocks_3_1_total",
    "idempotent_monoid",
    "parallel_pair",
    "z5",
    "s3_category",
]
# ``s3`` is the session fixture of the group; the category keeps the id.
CASES = [pytest.param(name, id=name.removesuffix("_category")) for name in CATEGORIES]

MUTATIONS_PER_KIND = 10


def mutations(C, seed, rounds=MUTATIONS_PER_KIND):
    """Seeded single-entry changes of ``C.table``, as (kind, table) pairs."""
    rng = random.Random(seed)
    pairs = sorted(C.table)

    def hom_of(f, g):
        return C.homs[(C.src[f], C.tgt[g])]

    for _ in range(rounds):
        wide = [p for p in pairs if len(hom_of(*p)) > 1]
        if wide:
            p = rng.choice(wide)
            table = dict(C.table)
            table[p] = rng.choice([h for h in hom_of(*p) if h != C.table[p]])
            yield "wrong composite", table
        p = rng.choice(pairs)
        others = [h for h in C.morphisms if h not in hom_of(*p)]
        if others:
            table = dict(C.table)
            table[p] = rng.choice(others)
            yield "wrong hom", table
        table = dict(C.table)
        del table[rng.choice(pairs)]
        yield "deleted pair", table


@pytest.mark.parametrize("name", CASES)
def test_valid_categories_match_reference(request, name):
    C = request.getfixturevalue(name)
    assert library(C, C.table) == oracle(C, C.table) == fields(C)


@pytest.mark.parametrize("name", CASES)
def test_mutations_match_reference(request, name):
    C = request.getfixturevalue(name)
    for kind, table in mutations(C, CATEGORIES.index(name)):
        assert library(C, table) == oracle(C, table), kind


def test_mutations_reach_every_error(fi3):
    seen = {library(fi3, table)[0] for _, table in mutations(fi3, 0)}
    assert {MissingComposite, CompositeEndpointViolation, AssociativityViolation} <= seen


def column_mutations(C, seed):
    """Seeded changes of the composition column of the file of ``C``, which
    lists its non-identity composites, as (kind, entries) pairs."""
    rng = random.Random(seed)
    ids = C.identity_morphisms
    entries = [(f, g, h) for (f, g), h in sorted(C.table.items()) if f not in ids and g not in ids]

    def put(i, entry):
        return entries[:i] + [entry] + entries[i + 1 :]

    for k in range(3):
        i = rng.randrange(len(entries))
        entry = list(entries[i])
        entry[k] = "ghost"
        yield "unknown id in column %d" % k, put(i, tuple(entry))
    f, g, _ = entries[0]
    yield "repeated pair, first and last", entries + [(f, g, rng.choice(C.morphisms))]
    yield "repeated pair, first and last", entries[-1:] + entries
    i = rng.randrange(len(entries))
    f, g, _ = entries[i]
    others = [m for m in C.morphisms if (C.src[m], C.tgt[m]) != (C.src[f], C.tgt[g])]
    if others:
        yield "wrong hom", put(i, (f, g, rng.choice(others)))
    i = rng.randrange(len(entries))
    yield "dropped", entries[:i] + entries[i + 1 :]
    f = rng.choice(sorted(set(C.morphisms) - ids))
    wrong = rng.choice([m for m in C.morphisms if m != f])
    yield "wrong identity composite", entries + [(C.identity[C.src[f]], f, wrong)]
    yield "wrong identity composite", entries + [(f, C.identity[C.tgt[f]], wrong)]
    apart = [(f, g) for f in C.morphisms for g in C.morphisms if C.tgt[f] != C.src[g]]
    if apart:
        f, g = rng.choice(apart)
        yield "not composable", put(rng.randrange(len(entries)), (f, g, f))


COLUMN_CATEGORIES = ["fi3", "fi_z2_2_total", "chain6_squared", "idempotent_monoid", "z5"]


@pytest.mark.parametrize("name", COLUMN_CATEGORIES)
def test_column_mutations_match_reference(request, tmp_path, capsys, name):
    """Each mutation of the columns gives the reference's exception and
    args, and ``fibcat validate`` exits 1 on it; a pair listed twice is
    malformed input, which the reference's table cannot hold, and exits 2."""
    C = request.getfixturevalue(name)
    morphisms = [(m, C.src[m], C.tgt[m]) for m in C.morphisms]
    path = tmp_path / "mutated.json"
    seen = set()
    for kind, entries in column_mutations(C, COLUMN_CATEGORIES.index(name)):
        doc = document(C.objects, morphisms, C.identity, entries)
        got = outcome(category_from_json, doc)
        if kind.startswith("repeated"):
            pairs = [(f, g) for f, g, _ in entries]
            twice = next(p for i, p in enumerate(pairs) if p in pairs[:i])
            error = ValueError("composition lists %r twice" % (twice,))
            assert got == (InputFormatError, ("malformed category file: %r" % error,)), kind
        else:
            table = {(f, g): h for f, g, h in entries}
            assert got == outcome(ref.validate_category, C.objects, morphisms, C.identity, table), kind
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == (2 if got[0] is InputFormatError else 1), kind
        capsys.readouterr()
        seen.add(got[0])
    assert {
        UnknownMorphism,
        InputFormatError,
        MissingComposite,
        UnitViolation,
    } <= seen <= {
        UnknownMorphism,
        InputFormatError,
        CompositeEndpointViolation,
        MissingComposite,
        UnitViolation,
        NonComposablePairInTable,
    }


def test_repeated_pair_wins_over_an_earlier_error():
    """A file that lists a pair twice is malformed whatever else is wrong
    with it: an unknown morphism source is not reported first."""
    doc = document("x", [("ix", "x", "x"), ("f", "x", "nowhere")], {"x": "ix"}, [("ix", "ix", "ix")] * 2)
    assert outcome(category_from_json, doc) == (
        InputFormatError,
        ("malformed category file: %r" % ValueError("composition lists ('ix', 'ix') twice"),),
    )


def two_targets():
    """f0, f1: a→b, g: b→c, h: c→d, k: c→e and their composites, all
    associative: f_i;g = u_i, g;h = v, g;k = w, u_i;h = f_i;v = x_i,
    u_i;k = f_i;w = y_i; each object x has the identity ix.  Returns the
    ``validate_category`` arguments."""
    morphisms = [
        tuple(m.split())
        for m in (
            "f0 a b", "f1 a b", "g b c", "h c d", "k c e", "u0 a c", "u1 a c",
            "v b d", "w b e", "x0 a d", "x1 a d", "y0 a e", "y1 a e",
        )
    ]
    objects = "abcde"
    morphisms += [("i" + x, x, x) for x in objects]
    table = {("g", "h"): "v", ("g", "k"): "w"}
    for i in "01":
        table[("f" + i, "g")] = "u" + i
        table[("u" + i, "h")] = table[("f" + i, "v")] = "x" + i
        table[("u" + i, "k")] = table[("f" + i, "w")] = "y" + i
    return objects, morphisms, {x: "i" + x for x in objects}, table


def both(objects, morphisms, identity, table):
    """The library's outcome, once the reference agrees with it."""
    got = read(objects, morphisms, identity, table)
    assert outcome(ref.validate_category, objects, morphisms, identity, table) == got
    return got


def test_two_targets_is_associative():
    assert both(*two_targets())[0] == tuple(sorted("abcde"))


def test_missing_pair_after_endpoint_violation_wins():
    """In the block (a, b, c), f0;g lands in the wrong hom-set and the later
    pair (f1, g) is missing: the missing pair is reported."""
    objects, morphisms, identity, table = two_targets()
    table[("f0", "g")] = "x0"
    del table[("f1", "g")]
    assert both(objects, morphisms, identity, table) == (MissingComposite, (("f1", "g"),))


def test_endpoint_violation_in_earlier_block_wins():
    """The block (a, b, c) comes before (b, c, d): its endpoint violation
    is reported, not the later block's missing pair."""
    objects, morphisms, identity, table = two_targets()
    table[("f1", "g")] = "x0"
    del table[("g", "h")]
    assert both(objects, morphisms, identity, table) == (
        CompositeEndpointViolation,
        (("f1", "g", "x0"),),
    )


def test_first_violation_is_at_the_earlier_target():
    """Associativity fails at d for f1 and at e for f0.  The first failure is
    the one at d, although the one at e has the smaller f: a sweep over all
    targets at once that reports its first mismatch would name (f0, g, k)."""
    objects, morphisms, identity, table = two_targets()
    table[("f1", "v")] = "x0"
    table[("f0", "w")] = "y1"
    assert both(objects, morphisms, identity, table) == (
        AssociativityViolation,
        (("f1", "g", "h"),),
    )


# A loop of order 5 (a unital Latin square) that is not a group: the
# smallest order with a non-associative loop.
LOOP5 = ["01234", "10342", "24013", "32401", "43120"]


def test_non_associative_loop_matches_reference():
    objects, identity = ["*"], {"*": "0"}
    morphisms = [(m, "*", "*") for m in LOOP5[0]]
    table = {(f, g): LOOP5[int(f)][int(g)] for f in LOOP5[0] for g in LOOP5[0]}
    assert both(objects, morphisms, identity, table) == (
        AssociativityViolation,
        (("1", "1", "2"),),
    )


def one_bad_triple(bad):
    """Two f: s→b from each source s of a, m and z, then g: b→c and h: c→d,
    with u = f;g, v = g;h and x = u;h = f;v for each f, except that
    f = ``bad`` has f;v = y, another morphism s→d: (bad, g, h) is the one
    non-associative triple.  Into b, (a, b) is the first hom-set and (z, b)
    the last.  Returns the ``validate_category`` arguments."""
    objects = "abcdmz"
    morphisms = [("g", "b", "c"), ("h", "c", "d"), ("v", "b", "d"), ("y", bad[0], "d")]
    morphisms += [("i" + x, x, x) for x in objects]
    table = {("g", "h"): "v"}
    for f in (s + k for s in "amz" for k in "01"):
        morphisms += [(f, f[0], "b"), ("u" + f, f[0], "c"), ("x" + f, f[0], "d")]
        table[(f, "g")] = "u" + f
        table[("u" + f, "h")] = table[(f, "v")] = "x" + f
    table[(bad, "v")] = "y"
    return objects, morphisms, {x: "i" + x for x in objects}, table


@pytest.mark.parametrize("cells", [None, 1])
@pytest.mark.parametrize("bad", ["a0", "z1"])
def test_lone_violation_in_first_or_last_source_hom_set(monkeypatch, bad, cells):
    """Light's sweep of g runs over every f into b at once, from every
    source hom-set; the one bad f is caught in the first of them and in the
    last, also when every round holds a single (f, g)."""
    if cells is not None:
        monkeypatch.setattr(core, "_SWEEP_CELLS", cells)
    assert both(*one_bad_triple(bad)) == (AssociativityViolation, ((bad, "g", "h"),))


def assert_generates(C):
    """With the identities, the generating set of ``C`` composes to every
    morphism, and it holds every non-identity that is no composite of two."""
    S = set(C.generators)
    ids = C.identity_morphisms
    assert not S & ids
    split = {h for (f, g), h in C.table.items() if f not in ids and g not in ids}
    assert set(C.morphisms) - ids - split <= S
    made, grown = S | ids, True
    while grown:
        new = {h for (f, g), h in C.table.items() if f in made and g in made} - made
        made, grown = made | new, bool(new)
    assert made == set(C.morphisms)


@pytest.mark.parametrize("name", CASES)
def test_light_generators_generate(request, name):
    assert_generates(request.getfixturevalue(name))


def test_light_generators_generate_random_categories(seeded_categories):
    """Light's test of associativity, and of every functor from these
    categories, trusts ``FinCat.generators``; the 80 seeded categories,
    with none to 15 generators, test it more widely than the fixed ones."""
    for C in seeded_categories:
        assert_generates(C)
    sizes = {len(C.generators) for C in seeded_categories}
    assert 0 in sizes and max(sizes) > 10


def test_light_sweep_is_small_on_fi5():
    """Each generator g: b→c is swept against every f into b and h out of
    c: on FI_5 fewer than a tenth of the composable triples."""
    C = generators.fi_truncated(5)
    S, homs = C.generators, C.homs
    into, out = {}, {}
    for (x, y), h in homs.items():
        into[y] = into.get(y, 0) + len(h)
        out[x] = out.get(x, 0) + len(h)
    swept = sum(into[C.src[g]] * out[C.tgt[g]] for g in S)
    triples = sum(len(h) * into[b] * out[c] for (b, c), h in homs.items())
    assert 10 * swept < triples


# |S| of each category, with hom-sets visited up the object preorder; by
# hom-set size alone they were 66, 42, 20, 264 and 60.
GENERATOR_COUNTS = {
    "fi_truncated(5)": (lambda: generators.fi_truncated(5), 15),
    "grothendieck(indexed_gpow(Z2, 4))": (
        lambda: grothendieck(generators.indexed_gpow(cyclic_group(2), 4)).total, 20
    ),
    "grothendieck(indexed_gpow(Z3, 3))": (
        lambda: grothendieck(generators.indexed_gpow(cyclic_group(3), 3)).total, 12
    ),
    "arrow_category(FI_3)": (lambda: generators.arrow_category(generators.fi_truncated(3)), 48),
    "product_category(chain6, chain6)": (
        lambda: generators.product_category(generators.chain_poset(6), generators.chain_poset(6)),
        60,
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_COUNTS))
def test_light_generating_set_size(name):
    build, size = GENERATOR_COUNTS[name]
    C = build()
    assert_generates(C)
    assert len(C.generators) == size


def test_light_generators_of_fi5_climb_one_step():
    """On FI_5 every generator is an automorphism or an injection n→n+1:
    the maps n→m with m > n + 1 are composites of those."""
    C = generators.fi_truncated(5)
    steps = {int(C.tgt[g]) - int(C.src[g]) for g in C.generators}
    assert steps == {0, 1}


def decoded(identities, blocks, compose):
    """The reference ``assemble`` arguments for a block composer: the i-th
    payload of a block into y becomes (y, i), so the per-composite
    ``compose(x, (y, i), (z, j))`` is (z, entry (i, j) of ``compose(x, y,
    z)``)."""
    coded = {(x, y): {(y, i): m for i, m in enumerate(b.values())} for (x, y), b in blocks.items()}
    units = {}
    for x, e in identities.items():
        ends = list(blocks.get((x, x), ()))
        units[x] = (x, ends.index(e)) if e in ends else None
    arrays = {}

    def composite(x, p, q):
        (y, i), (z, j) = p, q
        if (x, y, z) not in arrays:
            arrays[(x, y, z)] = np.asarray(compose(x, y, z)).tolist()
        return (z, arrays[(x, y, z)][i][j])

    return units, coded, composite


def componentwise(factors):
    """The per-composite formula of ``core.from_parts`` over ``factors``,
    for the reference ``assemble``: the parts of p then q are the codes of
    the composites, in each factor's string table, of their parts."""

    def compose(x, p, q):
        return tuple(
            F.coding.code[F.comp(F.coding.ids[a], F.coding.ids[b])] for F, a, b in zip(factors, p, q)
        )

    return compose


@pytest.fixture()
def checked_assemble(monkeypatch):
    """Make every build of these also run its reference on the same
    arguments: an injection category ``core_reference.injection_category``,
    a subcategory the reference checks of its parent's table cut down to
    it, ``from_parts`` the reference ``assemble`` with the parts composed by
    ``componentwise``, ``group_as_category`` the reference one and
    ``core_reference.assemble_blocks`` the reference ``assemble`` with the
    block composer decoded; the fields must agree, and the library's table
    must list the reference's in cell order.  Returns the table sizes of
    the categories built, in build order."""
    real_injections, real_sub, real_parts, real_group, real_blocks, calls = (
        generators._injection_category,
        core.subcategory,
        core.from_parts,
        groups.group_as_category,
        ref.assemble_blocks,
        [],
    )

    def check(C, expected):
        assert fields(C) == fields(expected)
        assert list(C.table) == cell_order(expected)
        calls.append(len(C.table))
        return C

    def checked_injections(points, images, mid):
        C = real_injections(points, images, mid)
        return check(C, ref.injection_category(points, images, mid))

    def checked_sub(C, objects, morphisms):
        table = {(f, g): C.comp(f, g) for f in morphisms for g in morphisms if C.tgt[f] == C.src[g]}
        expected = ref.validate_category(
            objects,
            [(m, C.src[m], C.tgt[m]) for m in morphisms],
            {x: C.id_of(x) for x in objects},
            table,
        )
        return check(real_sub(C, objects, morphisms), expected)

    def checked_parts(identities, blocks, factors):
        C = real_parts(identities, blocks, factors)
        return check(C, ref.assemble(identities, blocks, componentwise(factors)))

    def checked_group(G):
        return check(real_group(G), ref.group_as_category(G))

    def checked_blocks(identities, blocks, compose):
        C = real_blocks(identities, blocks, compose)
        return check(C, ref.assemble(*decoded(identities, blocks, compose)))

    monkeypatch.setattr(generators, "_injection_category", checked_injections)
    for module in (core, groth, indexed):
        monkeypatch.setattr(module, "subcategory", checked_sub)
    for module in (core, generators):
        monkeypatch.setattr(module, "from_parts", checked_parts)
    for module in (groups, generators):
        monkeypatch.setattr(module, "group_as_category", checked_group)
    monkeypatch.setattr(ref, "assemble_blocks", checked_blocks)
    return calls


BUILDERS = {
    "fi_truncated(3)": lambda: generators.fi_truncated(3),
    "fi_g_direct(Z2, 2)": lambda: generators.fi_g_direct(cyclic_group(2), 2),
    "fi_colored({a: Z2, b: Z2}, 1)": lambda: generators.fi_colored(
        {"a": cyclic_group(2), "b": cyclic_group(2)}, 1
    ),
    "slice_category(FI_2, '2')": lambda: generators.slice_category(
        generators.fi_truncated(2), "2"
    ),
    "arrow_category(FI_2)": lambda: generators.arrow_category(generators.fi_truncated(2)),
    "product_category(chain3, chain3)": lambda: generators.product_category(
        generators.chain_poset(3), generators.chain_poset(3)
    ),
    "square_poset()": generators.square_poset,
    "codiscrete_category('abc')": lambda: generators.codiscrete_category("abc"),
    "discrete_category('xyz')": lambda: generators.discrete_category("xyz"),
    "terminal_category()": generators.terminal_category,
    "group_as_category(S3)": lambda: groups.group_as_category(symmetric_group(3)),
    "block_perm_indexed(2, 1)": lambda: generators.block_perm_indexed(2, 1),
    "fiber(grothendieck(indexed_gpow(Z2, 2)).proj, '1')": lambda: groth.fiber(
        grothendieck(generators.indexed_gpow(cyclic_group(2), 2)).proj, "1"
    ),
    "restrict_to_aut(indexed_gpow(Z2, 2), '2')": lambda: restrict_to_aut(
        generators.indexed_gpow(cyclic_group(2), 2), "2"
    ),
    "fi_colored({a: Z2, b: Z2}, 2)": lambda: generators.fi_colored(
        {"a": cyclic_group(2), "b": cyclic_group(2)}, 2
    ),
    "grothendieck(indexed_gpow(Z2, 4))": lambda: checked_grothendieck(
        generators.indexed_gpow(cyclic_group(2), 4)
    ),
    "grothendieck(slice_indexed(FI_3))": lambda: checked_grothendieck(
        generators.slice_indexed(generators.fi_truncated(3))
    ),
    "grothendieck(block_perm_indexed(3, 1))": lambda: checked_grothendieck(
        generators.block_perm_indexed(3, 1)
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_match_reference_assemble(checked_assemble, name):
    BUILDERS[name]()
    assert checked_assemble


def built(result):
    """The categories a builder's result holds: itself, or the total of a
    Grothendieck construction and then the base and fibers of an indexed
    category, fibers by object."""
    if isinstance(result, groth.GrothResult):
        return [result.total] + built(result.indexed)
    if isinstance(result, indexed.IndexedCat):
        return [result.base] + [result.fibers[x] for x in sorted(result.fibers)]
    return [result]


def generator_digest(categories) -> str:
    """A sha256 prefix of the generating sets of ``categories``, in order."""
    text = "\n\n".join("\n".join(C.generators) for C in categories)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ``generator_digest(built(BUILDERS[name]()))``, and that of the 80 seeded
# categories, as they were when every pick of Light's S was closed round by
# round (``core_reference.light_generators``)
GENERATOR_DIGESTS = {
    "arrow_category(FI_2)": "d24713562aca029f",
    "block_perm_indexed(2, 1)": "3bfc177459fd4d67",
    "codiscrete_category('abc')": "43c9f57f779e0f2e",
    "discrete_category('xyz')": "e3b0c44298fc1c14",
    "fi_colored({a: Z2, b: Z2}, 1)": "59abc1c79076b59b",
    "fi_colored({a: Z2, b: Z2}, 2)": "f91413284965cc7b",
    "fi_g_direct(Z2, 2)": "f0094699910f21da",
    "fi_truncated(3)": "1985e00df4777c7d",
    "fiber(grothendieck(indexed_gpow(Z2, 2)).proj, '1')": "76de17ded1a724cc",
    "grothendieck(block_perm_indexed(3, 1))": "d68af5067b8ca474",
    "grothendieck(indexed_gpow(Z2, 4))": "62ea98434285cdf2",
    "grothendieck(slice_indexed(FI_3))": "1f85610e1aa34ef1",
    "group_as_category(S3)": "b44b7fc4e9506bb9",
    "product_category(chain3, chain3)": "6a92f107b3384953",
    "restrict_to_aut(indexed_gpow(Z2, 2), '2')": "dde0f4572b13cf73",
    "slice_category(FI_2, '2')": "43a4630945c95229",
    "square_poset()": "0be90aee6435ad2b",
    "terminal_category()": "e3b0c44298fc1c14",
}
SEEDED_GENERATOR_DIGEST = "fd51d0796579f9b2"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_generating_sets_are_pinned(name):
    """Light's S of every category a builder makes is the pinned one, and
    the one that closing every pick round by round chooses."""
    categories = built(BUILDERS[name]())
    assert generator_digest(categories) == GENERATOR_DIGESTS[name]
    for C in categories:
        assert C.generators == ref.light_generators(C)


def test_generating_sets_of_seeded_categories_are_pinned(seeded_categories):
    assert generator_digest(seeded_categories) == SEEDED_GENERATOR_DIGEST
    for C in seeded_categories:
        assert C.generators == ref.light_generators(C)


def same_category(C, expected):
    """The library's ``C`` has the reference's fields and lists its table in
    cell order."""
    return fields(C) == fields(expected) and list(C.table) == cell_order(expected)


FI2 = generators.fi_truncated(2)

# library builder and the reference one, on the same arguments
PART_BUILDERS = {
    "slice_category(FI_2, '2')": (generators.slice_category, ref.slice_category, (FI2, "2")),
    "slice_category(FI_2, '1')": (generators.slice_category, ref.slice_category, (FI2, "1")),
    "arrow_category(FI_2)": (generators.arrow_category, ref.arrow_category, (FI2,)),
    "arrow_category(S3)": (
        generators.arrow_category, ref.arrow_category, (group_as_category(symmetric_group(3)),),
    ),
    "product_category(FI_2, chain2)": (
        generators.product_category, ref.product_category, (FI2, generators.chain_poset(2)),
    ),
    "gpow_fiber(Z3, 3)": (generators.gpow_fiber, ref.gpow_fiber, (cyclic_group(3), 3)),
    "gpow_fiber(S3, 2)": (generators.gpow_fiber, ref.gpow_fiber, (symmetric_group(3), 2)),
    "gpow_fiber(Z2, 0)": (generators.gpow_fiber, ref.gpow_fiber, (cyclic_group(2), 0)),
    "group_as_category(S3)": (group_as_category, ref.group_as_category, (symmetric_group(3),)),
    "codiscrete_category('abc')": (
        generators.codiscrete_category,
        lambda names: ref.relation_category(names, lambda x, y: True, lambda x, y: "%s_%s" % (x, y)),
        ("abc",),
    ),
    "thin_category(square)": (
        lambda: generators.thin_category("abcd", lambda x, y: x == "a" or y == "d" or x == y),
        lambda: ref.relation_category(
            "abcd", lambda x, y: x == "a" or y == "d" or x == y, lambda x, y: "%s_to_%s" % (x, y)
        ),
        (),
    ),
}


@pytest.mark.parametrize("name", sorted(PART_BUILDERS))
def test_part_builders_match_reference_builders(name):
    """The builders that list each morphism by its parts, with their
    listing done on the cells, equal the reference builders that find every
    triangle, square and composite through the string table."""
    build, reference, args = PART_BUILDERS[name]
    assert same_category(build(*args), reference(*args))


def arrow_listing(A, C):
    """The ``from_parts`` arguments of the arrow category ``A`` of ``C``: its
    squares by their parts, the codes of u and v."""
    K, blocks = C.coding, {}
    for m in A.morphisms:
        f, u, v, g = m.split("~")
        blocks.setdefault((f, g), {})[(K.code[u], K.code[v])] = m
    identities = {f: (K.code[C.id_of(C.src[f])], K.code[C.id_of(C.tgt[f])]) for f in A.objects}
    return identities, blocks


def test_parts_between_other_objects_are_refused():
    """``from_parts`` reads the composite of f and g in the table of block
    (src f, tgt g), indexed by the parts' places in that block's hom-sets
    of the factors; a listing with a part in another hom-set is refused
    before any cell is read."""
    identities, blocks = arrow_listing(generators.arrow_category(FI2), FI2)
    square = blocks[("1>2:0", "1>2:1")]
    (u, v), m = next(iter(square.items()))
    del square[(u, v)]
    square[(FI2.coding.code["0>1:"], v)] = m
    with pytest.raises(CategoryError, match="runs between other objects"):
        core.from_parts(identities, blocks, (FI2, FI2))


def test_products_arrows_and_slices_of_seeded_categories(seeded_categories):
    """Products of pairs, arrow categories and every slice of the small
    seeded random categories equal the reference builds."""
    small = [C for C in seeded_categories if len(C.morphisms) <= 8]
    assert len(small) >= 50
    for k, C in enumerate(small):
        assert same_category(generators.arrow_category(C), ref.arrow_category(C)), k
        D = small[(7 * k + 3) % len(small)]
        assert same_category(generators.product_category(C, D), ref.product_category(C, D)), k
        for x in C.objects:
            assert same_category(generators.slice_category(C, x), ref.slice_category(C, x)), (k, x)


def test_unlisted_composite_is_named_at_its_first_cell():
    """Listing the arrow category of FI_2 without one square that is a
    composite of two others raises ``CompositeEndpointViolation`` for the
    first cell in cell order whose composite is that square."""
    A = generators.arrow_category(FI2)
    identities, blocks = arrow_listing(A, FI2)
    made = {h: p for p, h in A.table.items() if not (A.is_identity(p[0]) or A.is_identity(p[1]))}
    dropped = min(made)
    f, _, _, g = dropped.split("~")
    del blocks[(f, g)][next(p for p, m in blocks[(f, g)].items() if m == dropped)]
    want = next(
        p for p in cell_order(A) if A.table[p] == dropped and dropped not in p
    )
    with pytest.raises(CompositeEndpointViolation) as raised:
        core.from_parts(identities, blocks, (FI2, FI2))
    assert raised.value.args == (want,)


def test_composite_in_an_unlisted_block_is_named_at_its_first_cell():
    """Listing the arrow category of FI_2 without a whole block of squares
    that are composites: the first cell in cell order whose composite lies
    in that block raises ``CompositeEndpointViolation``, as the pair of
    objects has no table."""
    A = generators.arrow_category(FI2)
    identities, blocks = arrow_listing(A, FI2)
    made = {h for p, h in A.table.items() if not (A.is_identity(p[0]) or A.is_identity(p[1]))}
    f, g = next(xy for xy, ms in sorted(A.homs.items()) if xy[0] != xy[1] and set(ms) <= made)
    del blocks[(f, g)]
    dropped = set(A.homs[(f, g)])
    want = next(p for p in cell_order(A) if A.table[p] in dropped and not dropped & set(p))
    with pytest.raises(CompositeEndpointViolation) as raised:
        core.from_parts(identities, blocks, (FI2, FI2))
    assert raised.value.args == (want,)


RANDOM_MUTATIONS = 5


def test_random_categories_match_reference(checked_assemble, fi3, fi_z2_2_direct):
    """Random transformation monoids and random generated subcategories of
    FI_3 and of FI_Z2 with N = 2 are built by ``assemble`` and read from
    their files like the reference builds and reads them, and so are a few
    single-entry mutations of each file.  The monoids' payloads come in a
    shuffled order and each file lists its composites shuffled, yet the
    category read back lists its table exactly as the one built does.  The
    categories are those of the ``seeded_categories`` fixture."""
    rng = random.Random(rm.SEED)
    built = rm.seeded_categories(rng, (fi3, fi_z2_2_direct))
    assert len(checked_assemble) == len(built) == 80
    for seed, C in enumerate(built):
        objects, morphisms, identity, _ = raw(C, C.table)
        entries = [(f, g, h) for (f, g), h in C.table.items()]
        rng.shuffle(entries)
        read_back = category_from_json(document(objects, morphisms, identity, entries))
        assert list(read_back.table) == list(C.table), seed
        assert library(C, C.table) == oracle(C, C.table) == fields(C), seed
        for kind, table in mutations(C, seed, RANDOM_MUTATIONS):
            assert library(C, table) == oracle(C, table), (seed, kind)
    assert max(len(C.morphisms) for C in built) > 20
    assert {len(C.objects) for C in built} >= {1, 2, 3}


def test_assemble_differs_only_on_a_payload_outside_its_block():
    """The reference reports a payload outside its target block as missing,
    ``assemble_blocks`` as a composite in the wrong hom-set."""
    blocks = {("x", "x"): {0: "e", 1: "a"}}

    def compose(p, q):
        return (p + q) % 3

    assert outcome(ref.assemble, {"x": 0}, blocks, lambda x, p, q: compose(p, q)) == (
        MissingComposite,
        (("a", "a", 2),),
    )
    assert outcome(ref.assemble_blocks, {"x": 0}, blocks, ref.per_composite(blocks, compose)) == (
        CompositeEndpointViolation,
        (("a", "a", 2),),
    )


S3 = symmetric_group(3)
Z2 = cyclic_group(2)

INJECTIONS = {
    "fi_truncated(5)": (lambda: generators.fi_truncated(5), None),
    "fi_g_direct(Z2, 4)": (lambda: generators.fi_g_direct(Z2, 4), Z2),
    "fi_g_direct(S3, 2)": (lambda: generators.fi_g_direct(S3, 2), S3),
    "fi_colored({a: S3, b: Z2}, 1)": (
        lambda: generators.fi_colored({"a": S3, "b": Z2}, 1),
        {"a": S3, "b": Z2},
    ),
}


def laid_out(monkeypatch, build):
    """The category ``build`` returns and the ids of each of its blocks in
    the order ``_injection_category`` lays them out, as the id functions
    made them."""
    order = {}
    for name in ("inj_id", "dec_id"):

        def record(s, t, *rest, made=getattr(generators, name)):
            order.setdefault((s, t), []).append(made(s, t, *rest))
            return order[(s, t)][-1]

        monkeypatch.setattr(generators, name, record)
    C = build()
    monkeypatch.undo()
    return C, order


def parse(mid):
    """(source, target, images, decorations) of an injection id."""
    head, imgs, *decs = mid.split(":")
    s, t = head.split(">")
    images = tuple(int(i) for i in imgs.split(",")) if imgs else ()
    return s, t, images, tuple(decs[0].split(",")) if decs and decs[0] else ()


def oracle_composite(groups, f, g):
    """The id of f then g, composed by the reference formula for ``groups``:
    None for plain injections, a group, or a colour-to-group dict."""
    s, _, f_imgs, f_decs = parse(f)
    _, u, g_imgs, g_decs = parse(g)
    if groups is None:
        return generators.inj_id(s, u, ref.injection_composite(f_imgs, g_imgs))
    if isinstance(groups, dict):
        imgs, decs = ref.colored_composite(groups, s, f_imgs, f_decs, g_imgs, g_decs)
    else:
        imgs, decs = ref.decorated_composite(groups, f_imgs, f_decs, g_imgs, g_decs)
    return generators.dec_id(s, u, imgs, decs)


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_injection_composer_matches_reference_formula(name):
    build, groups = INJECTIONS[name]
    C = build()
    for (f, g), h in C.table.items():
        assert h == oracle_composite(groups, f, g), (f, g)
    assert len(C.table) > len(C.homs) * len(C.objects)


MUTATIONS = 12


def width(x):
    """The number of points of the object ``x``: FI-type objects are
    numerals, coloured ones strings of colours."""
    return int(x) if x.isdigit() else len(x)


def image_code(image, n):
    return sum(i * n ** (len(image) - 1 - k) for k, i in enumerate(image))


def mutated_coder(order, images, xyz, cell, code):
    """``generators._composite_coder`` with one code changed: in the pair of
    blocks (x, y), (y, z) of ``xyz``, the code of the image of g∘f at
    ``cell`` (the index of g's image, then of f's) becomes ``code``.  The
    builder composes the pairs of blocks in sorted order, (x, y) and then
    z; the images of the pair found there must be those of ``images``."""
    real, (x, y, z) = generators._composite_coder, xyz
    blocks = sorted(order)
    calls = iter(range(len(blocks)))

    def coder(f_img, n_y):
        made = real(f_img, n_y)
        if next(calls) != blocks.index((x, y)):
            return made
        assert f_img.tolist() == images[(x, y)]
        later = iter([t for s, t in blocks if s == y])

        def codes(g_img, n_z):
            out = made(g_img, n_z)
            if next(later) == z:
                assert g_img.tolist() == images[(y, z)]
                out = out.copy()
                out[cell] = code
            return out

        return codes

    return coder


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_mutated_injection_composer_is_caught(monkeypatch, name):
    """One changed code of one composite image, in one pair of blocks (x,
    y), (y, z), is caught.  A code that no image of block (x, z) has ranks
    one past the block's images, and the build raises
    ``CompositeEndpointViolation`` at the first cell of the changed image:
    its first decoration of f and of g.  The code of another image of the
    block changes that image in the cells of every decoration of f and g,
    and the build raises the ``UnitViolation`` or
    ``AssociativityViolation`` that the equally changed table raises
    through ``category_from_json`` and through the reference."""
    build, _ = INJECTIONS[name]
    C, order = laid_out(monkeypatch, build)
    images = {xy: [list(im) for im in dict.fromkeys(parse(m)[2] for m in ms)] for xy, ms in order.items()}
    triples = [(x, y, z) for (x, y) in order for (y2, z) in order if y2 == y]
    rng = random.Random(sorted(INJECTIONS).index(name))
    caught = set()
    for _ in range(MUTATIONS):
        x, y, z = rng.choice(triples)
        fs, gs, hs = order[(x, y)], order[(y, z)], order[(x, z)]
        ims, n = images[(x, z)], width(z)
        d_x, d_y = len(hs) // len(ims), len(gs) // len(images[(y, z)])
        i, j = rng.randrange(len(images[(y, z)])), rng.randrange(len(images[(x, y)]))
        f, g = fs[j * d_x], gs[i * d_y]
        h = C.table[(f, g)]
        dec = hs.index(h) % d_x

        absent = sorted(set(range(n ** len(ims[0]))) - {image_code(im, n) for im in ims})
        if absent:
            coder = mutated_coder(order, images, (x, y, z), (i, j), rng.choice(absent))
            monkeypatch.setattr(generators, "_composite_coder", coder)
            got = outcome(build)
            monkeypatch.undo()
            assert got == (CompositeEndpointViolation, ((f, g, len(ims) * d_x + dec),))
            caught.add(got[0])

        others = [k for k, im in enumerate(ims) if im != list(parse(h)[2])]
        if others:
            wrong = rng.choice(others)
            table = dict(C.table)
            for p in fs[j * d_x : (j + 1) * d_x]:
                for q in gs[i * d_y : (i + 1) * d_y]:
                    table[(p, q)] = hs[wrong * d_x + hs.index(C.table[(p, q)]) % d_x]
            coder = mutated_coder(order, images, (x, y, z), (i, j), image_code(ims[wrong], n))
            monkeypatch.setattr(generators, "_composite_coder", coder)
            got = outcome(build)
            monkeypatch.undo()
            assert got[0] in (UnitViolation, AssociativityViolation)
            assert got == library(C, table) == oracle(C, table)
            caught.add(got[0])
    # a wrong image needs a block of two images, which coloured FI with
    # N = 1 has not
    assert CompositeEndpointViolation in caught
    assert UnitViolation in caught or max(map(len, images.values())) == 1


GROTH_EXTRA = {
    # non-strict: compositors that are not identities
    "slice_indexed(FI_3)": lambda: generators.slice_indexed(generators.fi_truncated(3)),
    "block_perm_indexed(3, 1)": lambda: generators.block_perm_indexed(3, 1),
    "indexed_gpow(Z3, 3)": lambda: generators.indexed_gpow(cyclic_group(3), 3),
}


def total_reference(M):
    """The total category of ``M`` by ``grothendieck_composite``, one cell
    at a time in cell order, as (outcome, mor_id, table): the morphisms
    (f, k, b) listed in base order of f, fiber order of b, then by source
    and id of k; ``CompositeEndpointViolation((p, q))`` for the first cell
    whose composite is no morphism from src p to tgt q, else
    ``MissingIdentity`` for the first object by id whose (id_x, eta_x(a),
    a) is no endomorphism of it, else the reference checks of the table."""
    base, fibers = M.base, M.fibers
    mor_id, src, tgt = {}, {}, {}
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        for b in fibers[y].objects:
            mfb = M.arrows[f].ob(b)
            for a in fibers[x].objects:
                for k in fibers[x].hom(a, mfb):
                    t = mor_id[(f, k, b)] = "(%s@%s@%s)" % (f, k, b)
                    src[t], tgt[t] = groth.pair_id(x, a), groth.pair_id(y, b)
    payload = {t: p for p, t in mor_id.items()}
    objects = sorted(groth.pair_id(x, a) for x in base.objects for a in fibers[x].objects)
    out = {t: [] for t in objects}
    for m in sorted(src, key=lambda m: (tgt[m], m)):
        out[src[m]].append(m)
    table = {}
    for p in sorted(src, key=lambda m: (src[m], tgt[m], m)):
        for q in out[tgt[p]]:
            try:
                h = mor_id.get(ref.grothendieck_composite(M, payload[p], payload[q]))
            except KeyError:
                h = None
            if h is None or src[h] != src[p]:
                return (CompositeEndpointViolation, ((p, q),)), mor_id, table
            table[(p, q)] = h
    identity = {}
    for x in base.objects:
        for a in fibers[x].objects:
            t = groth.pair_id(x, a)
            identity[t] = mor_id.get((base.id_of(x), M.eta(x).at(a), a))
    missing = [t for t in objects if identity[t] is None or src[identity[t]] != t]
    if missing:
        return (MissingIdentity, ("object %r has no identity morphism" % missing[0],)), mor_id, table
    morphisms = [(m, src[m], tgt[m]) for m in src]
    return outcome(ref.validate_category, objects, morphisms, identity, table), mor_id, table


def checked_grothendieck(M):
    """``grothendieck(M)``, which must give the total of the reference cell
    by cell and list its morphisms in the reference's order."""
    gr = grothendieck(M)
    want, mor_id, table = total_reference(M)
    assert fields(gr.total) == want
    assert list(gr.total.table.items()) == list(table.items())
    assert list(gr.mor_id.items()) == list(mor_id.items())
    return gr


def test_grothendieck_matches_reference_formula(groth_corpus):
    instances = [(name, M) for name, M, _ in groth_corpus]
    instances += [(name, build()) for name, build in GROTH_EXTRA.items()]
    for name, M in instances:
        gr = checked_grothendieck(M)
        assert len(gr.total.table) >= len(gr.total.morphisms), name


def indexed_mutations(M, seed, rounds=4):
    """Seeded single-entry changes of ``M`` past ``validate_indexed``, as
    (kind, indexed category) pairs: a compositor component moved to another
    hom-set, or an arrow functor's image of a morphism swapped for a
    parallel one, for one that starts elsewhere, or for one that starts
    there and ends elsewhere; the last two make pairs of fiber morphisms
    that are not composable."""
    rng = random.Random(seed)
    for _ in range(rounds):
        (f, g) = rng.choice(sorted(M.compositors))
        mu, fib = M.compositors[(f, g)], M.fibers[M.base.src[f]]
        c = rng.choice(sorted(mu.components))
        m = mu.components[c]
        others = [h for h in fib.morphisms if (fib.src[h], fib.tgt[h]) != (fib.src[m], fib.tgt[m])]
        if others:
            mu = dataclasses.replace(mu, components={**mu.components, c: rng.choice(others)})
            yield "compositor", dataclasses.replace(M, compositors={**M.compositors, (f, g): mu})
        f = rng.choice(M.base.morphisms)
        F = M.arrows[f]
        l = rng.choice(sorted(F.on_morphisms))
        m, fib = F.on_morphisms[l], F.target
        for kind, swaps in (
            ("parallel", [h for h in fib.hom(fib.src[m], fib.tgt[m]) if h != m]),
            ("starts elsewhere", [h for h in fib.morphisms if fib.src[h] != fib.src[m]]),
            (
                "ends elsewhere",
                [h for h in fib.morphisms if fib.src[h] == fib.src[m] and fib.tgt[h] != fib.tgt[m]],
            ),
        ):
            if swaps:
                G = dataclasses.replace(F, on_morphisms={**F.on_morphisms, l: rng.choice(swaps)})
                yield kind, dataclasses.replace(M, arrows={**M.arrows, f: G})


def test_malformed_indexed_category_fails_like_the_formula(fi2, z2):
    """An ``IndexedCat`` built past ``validate_indexed`` gets the first error
    of the reference formula in cell order, a ``CategoryError`` and never a
    ``KeyError`` or ``IndexError``, or, when no composite reads the changed
    entry, the same total."""
    instances = [
        generators.delta_const(fi2, fi2),
        generators.slice_indexed(fi2),
        generators.indexed_gpow(z2, 2),
        generators.block_perm_indexed(2, 1),
    ]
    caught = set()
    for seed, M in enumerate(instances):
        for kind, bad in indexed_mutations(M, seed):
            got = outcome(lambda M: grothendieck(M).total, bad)
            assert got == total_reference(bad)[0], kind
            if isinstance(got[0], type):
                caught.add((kind, got[0]))
    kinds = {"compositor", "parallel", "starts elsewhere", "ends elsewhere"}
    assert {kind for kind, _ in caught} == kinds
    assert {error for _, error in caught} >= {
        CompositeEndpointViolation,
        UnitViolation,
        AssociativityViolation,
    }
