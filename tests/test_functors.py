import itertools
import random

import numpy as np
import pytest

import functors_reference as ref
from fibcat import (
    NotAFunctor,
    NotNatural,
    compose_functors,
    functor_properties,
    functors_equal,
    identity_functor,
    identity_nat_trans,
    validate_functor,
    validate_nat_trans,
)
from fibcat.functors import enumerate_functors, unnatural
from fibcat.functors import identity_nat_trans  # noqa: F401  (re-export check)
from fibcat.generators import (
    chain_poset,
    delta_const,
    discrete_category,
    fi_g_direct,
    fi_truncated,
    indexed_gpow,
    inj_id,
    parse_dec,
    terminal_category,
    thin_category,
)
from fibcat.groth import grothendieck
from fibcat.ioformats import category_from_json, category_to_json
from fibcat.groups import cyclic_group
from test_search_reference import small_categories  # noqa: F401  (the fixture of its 21 categories)


def test_identity_functor_properties(fi2):
    F = identity_functor(fi2)
    props = functor_properties(F)
    assert props.full.holds and props.faithful.holds
    assert props.essentially_surjective.holds and props.equivalence


def test_projection_is_a_valid_functor(fi2):
    gr = grothendieck(delta_const(fi2, fi2))
    assert gr.proj.source is gr.total
    props = functor_properties(gr.proj)
    assert props.essentially_surjective.holds
    assert not props.faithful.holds  # parallel fiber maps collapse


def test_missing_object_mapping_rejected(fi2):
    with pytest.raises(NotAFunctor):
        validate_functor(fi2, fi2, {}, {m: m for m in fi2.morphisms})


def test_endpoint_violation_rejected(fi2):
    on_m = {m: m for m in fi2.morphisms}
    on_o = {x: x for x in fi2.objects}
    on_o["0"] = "1"
    with pytest.raises(NotAFunctor):
        validate_functor(fi2, fi2, on_o, on_m)


def test_entries_for_unknown_ids_rejected(fi2):
    """A table entry for an id the source lacks is no part of the functor
    or transformation; keeping it silently hid a misspelt or stale id."""
    on_o = {x: x for x in fi2.objects}
    on_m = {m: m for m in fi2.morphisms}
    with pytest.raises(NotAFunctor, match="'ghost'"):
        validate_functor(fi2, fi2, on_o | {"ghost": "0"}, on_m)
    with pytest.raises(NotAFunctor, match="'nonexistent'"):
        validate_functor(fi2, fi2, on_o, on_m | {"nonexistent": fi2.id_of("0")})
    F = identity_functor(fi2)
    comps = {x: fi2.id_of(x) for x in fi2.objects}
    with pytest.raises(NotNatural, match="'ghost'"):
        validate_nat_trans(F, F, comps | {"ghost": fi2.id_of("0")})


def test_non_string_ids_are_not_converted(fi2):
    """Ids are strings: the JSON reader converts scalars, the validators do not."""
    on_m = {m: m for m in fi2.morphisms}
    with pytest.raises(NotAFunctor):
        validate_functor(fi2, fi2, {0: "0", 1: "1", 2: "2"}, on_m)


def test_composite_violation_rejected():
    C = chain_poset(3)
    on_m = {m: m for m in C.morphisms}
    # redirect the long composite through the identity: breaks F(g.f) = F(g).F(f)
    on_m["p0_to_p2"] = "p0_to_p2"
    on_m["p0_to_p1"] = "p0_to_p0"
    with pytest.raises(NotAFunctor):
        validate_functor(C, C, {x: x for x in C.objects}, on_m)


def test_nat_trans_validation(fi2):
    F = identity_functor(fi2)
    alpha = validate_nat_trans(F, F, {x: fi2.id_of(x) for x in fi2.objects})
    assert alpha.at("1") == fi2.id_of("1")
    with pytest.raises(NotNatural):
        validate_nat_trans(F, F, {x: fi2.id_of(x) for x in fi2.objects if x != "0"})


def test_nat_trans_square_violation(fi2):
    from fibcat.generators import inj_id

    F = identity_functor(fi2)
    comps = {x: fi2.id_of(x) for x in fi2.objects}
    comps["2"] = inj_id(2, 2, (1, 0))  # swap breaks naturality against inclusions
    with pytest.raises(NotNatural):
        validate_nat_trans(F, F, comps)


def test_compose_functors_and_equality(fi2):
    F = identity_functor(fi2)
    assert functors_equal(compose_functors(F, F), F)


def test_compose_functors_needs_the_very_middle_category(fi2):
    """G must start at the category F ends at, not at another category on
    the same objects, nor at an equal copy of it."""
    F = identity_functor(fi2)
    same_objects = thin_category(["0", "1", "2"], lambda a, b: a <= b)
    for other in (same_objects, fi_truncated(2)):
        with pytest.raises(NotAFunctor) as caught:
            compose_functors(F, identity_functor(other))
        assert caught.value.args == ("composition endpoint mismatch",)


def test_first_composite_not_preserved_follows_cell_order(fi4):
    """The full check walks the source's table, which lists its pairs in
    cell order, so that order names the first composite not preserved."""
    C = category_from_json(category_to_json(fi4))
    mor = {f: f for f in C.morphisms}
    mor.update({"2>3:2,1": "2>3:2,0", "2>4:1,3": "2>4:2,3"})
    with pytest.raises(NotAFunctor) as caught:
        validate_functor(C, C, {x: x for x in C.objects}, mor)
    assert caught.value.args == (("composite not preserved", "1>2:0", "2>4:1,3"),)


def test_identity_nat_trans_is_valid(fi2):
    F = identity_functor(fi2)
    alpha = identity_nat_trans(F)
    validate_nat_trans(F, F, alpha.components)


def verdict(check, F):
    """The args of the ``NotAFunctor`` that ``check`` raises on the tables
    of ``F``, or None when it raises none."""
    try:
        check(F.source, F.target, F.on_objects, F.on_morphisms)
    except NotAFunctor as exc:
        return exc.args
    return None


def test_corpus_functors_match_reference(groth_corpus):
    """Every projection and arrow functor of the corpus passes both checks."""
    for name, M, gr in groth_corpus:
        for F in [gr.proj] + [M.arrow_at(f) for f in M.base.morphisms]:
            assert verdict(validate_functor, F) is verdict(ref.check_functor, F) is None, name


def forget(G, N):
    """fi_g_direct(G, N) → FI_N, dropping the decorations."""
    D = fi_g_direct(G, N)
    on_m = {}
    for m in D.morphisms:
        s, t, imgs, _ = parse_dec(m)
        on_m[m] = inj_id(s, t, imgs)
    return validate_functor(D, fi_truncated(N), {x: x for x in D.objects}, on_m)


MUTANTS = {
    "proj(indexed_gpow(Z2, 2))": lambda: grothendieck(indexed_gpow(cyclic_group(2), 2)).proj,
    "fi_g_direct(Z3, 2) -> FI_2": lambda: forget(cyclic_group(3), 2),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutated_functors_match_reference(name):
    """Seeded one-entry changes of ``on_morphisms``, most of them to a
    morphism with the same endpoints, give the reference's first error."""
    F = MUTANTS[name]()
    T = F.target
    rng = random.Random(sorted(MUTANTS).index(name))
    seen = set()
    for _ in range(40):
        f = rng.choice(F.source.morphisms)
        image = F.on_morphisms[f]
        parallel = [g for g in T.hom(T.src[image], T.tgt[image]) if g != image]
        choices = parallel if parallel and rng.random() < 0.8 else T.morphisms
        mutant = type(F)(F.source, T, F.on_objects, F.on_morphisms | {f: rng.choice(choices)})
        got = verdict(validate_functor, mutant)
        assert got == verdict(ref.check_functor, mutant), f
        seen.add(got[0][0] if got else None)
    assert {"composite not preserved", "endpoints not preserved"} <= seen


def test_random_identity_mutants_match_reference(seeded_categories):
    """On each of the 80 seeded random categories, the identity functor
    and seeded changes of it that move one morphism's image to another
    morphism of its hom-set give the reference's first error, or none (a
    few changes are functors still)."""
    rng = random.Random(0)
    seen = []
    for C in seeded_categories:
        F = identity_functor(C)
        assert verdict(validate_functor, F) is verdict(ref.check_functor, F) is None
        movable = [f for f in C.morphisms if len(C.hom(C.src[f], C.tgt[f])) > 1]
        for f in rng.sample(movable, min(3, len(movable))):
            image = rng.choice([g for g in C.hom(C.src[f], C.tgt[f]) if g != f])
            mutant = type(F)(C, C, F.on_objects, F.on_morphisms | {f: image})
            got = verdict(validate_functor, mutant)
            assert got == verdict(ref.check_functor, mutant), f
            seen.append(got and got[0][0])
    assert len(seen) > 100
    assert {"composite not preserved", "identity not preserved"} <= set(seen)


@pytest.mark.parametrize("names", [(), ("a",), ("a", "b", "c")])
def test_functors_from_categories_without_generators(names):
    """A discrete category has no non-identity, so its generating set is
    empty and Light's test compares no pair; every functor out of it is
    valid once it preserves endpoints and identities, and so is its
    identity transformation, also on the empty category."""
    D, point = discrete_category(names), terminal_category()
    assert D.generators == () and point.generators == ()
    validate_functor(D, D, {x: x for x in D.objects}, {f: f for f in D.morphisms})
    validate_functor(D, point, {x: "*" for x in D.objects}, {f: "id" for f in D.morphisms})
    validate_functor(point, point, {"*": "*"}, {"id": "id"})
    F = identity_functor(D)
    assert validate_nat_trans(F, F, {x: D.id_of(x) for x in D.objects}).components.keys() == set(names)
    if names:
        validate_functor(point, D, {"*": "a"}, {"id": "id_a"})


def test_light_functor_check_is_small():
    """Each generator g is checked against every f into src g: on FI_5
    fewer than a tenth of the composites."""
    C = fi_truncated(5)
    into = {}
    for (_, y), fs in C.homs.items():
        into[y] = into.get(y, 0) + len(fs)
    checked = sum(into[C.src[g]] for g in C.generators)
    assert 10 * checked < len(C.table)
    validate_functor(C, C, {x: x for x in C.objects}, {f: f for f in C.morphisms})


def nat_verdict(check, F, G, components):
    """The args of the ``NotNatural`` that ``check`` raises, or None."""
    try:
        check(F, G, components)
    except NotNatural as exc:
        return exc.args
    return None


def test_mutated_transformations_match_reference(corpus):
    """Every compositor of the corpus, unchanged and with one component
    moved to a parallel morphism or anywhere, gets the reference's verdict,
    given as the path (M(g), M(f)) and as the composite built in full."""
    rng = random.Random(0)
    seen = set()
    for name, M in corpus:
        for (f, g), mu in M.compositors.items():
            Mf, Mg, Mfg = M.arrow_at(f), M.arrow_at(g), M.arrow_at(M.base.comp(f, g))
            full, T = compose_functors(Mg, Mf), Mf.target
            c = rng.choice(sorted(mu.components))
            m = mu.components[c]
            parallel = [h for h in T.hom(T.src[m], T.tgt[m]) if h != m]
            variants = [mu.components, {**mu.components, c: rng.choice(T.morphisms)}]
            if parallel:
                variants.append({**mu.components, c: rng.choice(parallel)})
            for comps in variants:
                want = nat_verdict(ref.check_nat_trans, full, Mfg, comps)
                assert nat_verdict(validate_nat_trans, (Mg, Mf), Mfg, comps) == want, (name, f, g)
                assert nat_verdict(validate_nat_trans, full, Mfg, comps) == want, (name, f, g)
                seen.add(want[0][0] if want else None)
    assert {None, "square", "component endpoints"} <= seen


def test_path_must_compose(fi2):
    """A path whose functors do not compose is refused before any component
    is read."""
    F = identity_functor(fi2)
    other = identity_functor(fi_truncated(2))
    with pytest.raises(NotAFunctor):
        validate_nat_trans((F, other), F, {x: fi2.id_of(x) for x in fi2.objects})
    alpha = validate_nat_trans((F, F), F, {x: fi2.id_of(x) for x in fi2.objects})
    assert alpha.source == (F, F)


def test_unnatural_matches_reference_family_by_family(small_categories):
    """For every pair of parallel functors F, G: A → B among the small
    categories of ``test_search_reference`` (at most ``PAIRS`` per A, B,
    seeded), the families of the product of the hom-sets hom(F(x), G(x))
    (at most ``FAMILIES``, seeded), each also with one component missing
    (-1) and one moved out of its hom-set, are decided in one ``unnatural``
    batch on Light's S, and each verdict is the reference's on the family
    alone, whose check composes every square."""
    PAIRS, FAMILIES = 12, 8
    rng = random.Random(39)
    seen, batches = {}, 0
    for A, B in itertools.product(small_categories, repeat=2):
        functors = list(enumerate_functors(A, B))
        pairs = list(itertools.product(functors, repeat=2))
        for F, G in rng.sample(pairs, min(PAIRS, len(pairs))):
            homs = [B.hom_codes(F.ob(x), G.ob(x)).tolist() for x in A.objects]
            families = list(itertools.islice(itertools.product(*homs), 10 * FAMILIES))
            families = [list(c) for c in rng.sample(families, min(FAMILIES, len(families)))]
            for codes in families[: len(families) // 2]:
                x = rng.randrange(len(codes))
                outside = [m for m in range(len(B.morphisms)) if m not in homs[x]]
                families.append(codes[:x] + [-1] + codes[x + 1 :])
                if outside:
                    families.append(codes[:x] + [rng.choice(outside)] + codes[x + 1 :])
            if not families:
                continue
            K, L, n, k = A.coding, B.coding, len(families), len(A.objects)
            zero = np.zeros(n, np.intp)
            paths = [[(zero, P.code_map, zero, P.ob_map)] for P in (F, G)]
            objects = np.repeat(np.arange(n), k), np.tile(np.arange(k), n)
            squares = np.repeat(np.arange(n), len(K.gens)), np.tile(K.gens, n)
            comps = np.arange(n) * k, np.array(families, np.intp).reshape(-1)
            bad = unnatural(K, L, *paths, comps, (objects, squares))
            batches += 1
            for codes, got in zip(families, bad.tolist()):
                table = {x: L.ids[c] for x, c in zip(A.objects, codes) if c >= 0}
                want = nat_verdict(ref.check_nat_trans, F, G, table)
                assert got == (want is not None), (A, B, F.on_morphisms, G.on_morphisms, table)
                seen[want and want[0][0]] = seen.get(want and want[0][0], 0) + 1
    assert batches > 2000
    assert {None, "square", "component missing", "component endpoints"} <= set(seen), seen
