import math

import pytest

from comparisons import fi_g_comparison
from core_reference import decorated_composite
from fibcat import (
    CategoryError,
    NotAFibration,
    UnknownMorphism,
    check_fibred_functor,
    check_fibred_nat_trans,
    choose_cleaving,
    compose_functors,
    fiber,
    fiber_inclusion,
    functor_properties,
    functors_equal,
    grothendieck,
    is_cartesian,
    is_iso,
    is_fibration,
    straighten,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from fibcat.groth import Cleaving
from groth_reference import cartesian_factor
from fibcat.generators import (
    delta_const,
    discrete_category,
    indexed_gpow,
    slice_indexed,
    terminal_category,
)
from fibcat.groups import (
    hom_as_functor,
    symmetric_group,
    trivial_group,
    validate_group_hom,
)


def perm_count(n, m):
    return math.factorial(n) // math.factorial(n - m)


def canonical_lift(gr, f, b):
    """The lift (f, id, b) of f to the fiber object b over tgt f."""
    M = gr.indexed
    return gr.mor_id[(f, M.fiber_at(M.base.src[f]).id_of(M.arrow_at(f).ob(b)), b)]


def fiber_iso(gr, x):
    """The isomorphism k ↦ (id_x, k, tgt k) from M(x) onto the fiber of the
    projection over x, for an indexed category whose unitor at x is the
    identity."""
    fib_x = gr.indexed.fiber_at(x)
    on_morphisms = {k: gr.mor_id[(gr.indexed.base.id_of(x), k, fib_x.tgt[k])] for k in fib_x.morphisms}
    return validate_functor(fib_x, fiber(gr.proj, x), {a: gr.obj_id[(x, a)] for a in fib_x.objects}, on_morphisms)


def comparison(P, cleaving):
    """The functor (f, k, b) ↦ k;lift(f, b) from the total of
    ``straighten(P, cleaving)`` back to the source of P."""
    gr, A = grothendieck(straighten(P, cleaving)), P.source
    on_morphisms = {t: A.comp(k, cleaving.lift(f, b)) for (f, k, b), t in gr.mor_id.items()}
    return validate_functor(gr.total, A, {t: a for t, (_, a) in gr.obj_of.items()}, on_morphisms)


def test_hom_set_cardinalities(gr_zpow2_3):
    # oracle: decorated injections m→n number |G|^m · n!/(n-m)!
    _, gr = gr_zpow2_3
    for m in range(4):
        for n in range(m, 4):
            got = len(gr.total.hom(gr.obj_id[(str(m), "*")], gr.obj_id[(str(n), "*")]))
            assert got == 2 ** m * perm_count(n, m)


def test_intro_figure_composition_rule():
    # the worked composite with decorations in a nonabelian group, so the
    # multiplication order is pinned: the result is (g1·h2, g2·h1, g3·h4)
    s3 = symmetric_group(3)
    g1, g2, g3 = "120", "201", "102"
    h1, h2, h3, h4 = "210", "021", "120", "012"
    f_imgs = (1, 0, 3)  # 1↦2, 2↦1, 3↦4 zero-based
    h_imgs = (4, 0, 1, 2)  # 1↦5, 2↦1, 3↦2, 4↦3 zero-based
    imgs, decs = decorated_composite(
        s3, f_imgs, (g1, g2, g3), h_imgs, (h1, h2, h3, h4)
    )
    assert imgs == (0, 4, 2)
    assert decs == (s3.mul(g1, h2), s3.mul(g2, h1), s3.mul(g3, h4))


def test_total_composition_agrees_with_decorated_rule(z2):
    M = indexed_gpow(z2, 3)
    gr = grothendieck(M)
    F, props = fi_g_comparison(z2, 3, gr)
    assert props.equivalence
    assert props.full.holds and props.faithful.holds and props.essentially_surjective.holds


def test_isos_are_cartesian(gr_zpow2_3):
    _, gr = gr_zpow2_3
    for phi in gr.total.inverses:
        assert is_cartesian(gr.proj, phi)


def test_canonical_lifts_are_cartesian(gr_zpow2_3):
    M, gr = gr_zpow2_3
    for f in M.base.morphisms:
        y = M.base.tgt[f]
        for b in M.fiber_at(y).objects:
            assert is_cartesian(gr.proj, canonical_lift(gr, f, b))


def test_noncartesian_witness_in_two_level_fiber(fi2):
    # fiber an arrow category a→b: the lift (f, non-iso vertical) fails
    Y = validate_category(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("v", "a", "b")],
        {"a": "ia", "b": "ib"},
        [],
    )
    M = delta_const(fi2, Y)
    gr = grothendieck(M)
    phi = gr.mor_id[(fi2.id_of("0"), "v", "b")]
    assert not is_cartesian(gr.proj, phi)


def test_fibration_for_group_surjection(z4, z2):
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    assert is_fibration(hom_as_functor(p)).holds


def test_non_surjective_hom_is_not_a_fibration(z2):
    t = trivial_group()
    p = validate_group_hom(t, z2, {"e": "0"})
    rep = is_fibration(hom_as_functor(p))
    assert not rep.holds
    assert rep.counterexample == ("1", "*")


def test_cleaving_normalized_and_split_for_strict(gr_zpow2_3):
    M, gr = gr_zpow2_3
    cleaving = choose_cleaving(gr.proj)
    base = M.base
    for (f, b), lift in cleaving.entries.items():
        if base.is_identity(f):
            assert lift == gr.total.id_of(b)
    # split law: Cart(g∘f, c) = Cart(f, g*c) ∘ Cart(g, c) exactly
    for (f, g), gf in base.table.items():
        for c in [t for t in gr.total.objects if gr.proj.ob(t) == base.tgt[g]]:
            lift_g = cleaving.lift(g, c)
            gc = gr.total.src[lift_g]
            assert gr.total.comp(cleaving.lift(f, gc), lift_g) == cleaving.lift(gf, c)


def test_choose_cleaving_requires_fibration(z2):
    t = trivial_group()
    p = validate_group_hom(t, z2, {"e": "0"})
    with pytest.raises(NotAFibration):
        choose_cleaving(hom_as_functor(p))


def test_fiber_of_group_hom_is_kernel(z4, z2):
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    F = hom_as_functor(p)
    fib = fiber(F, "*")
    assert set(fib.morphisms) == {"0", "2"}


def test_reindexing_identity_is_identity(gr_zpow2_3):
    M, gr = gr_zpow2_3
    F = straighten(gr.proj).arrow_at(M.base.id_of("2"))
    assert functors_equal(F, validate_functor(F.source, F.source, {o: o for o in F.source.objects}, {m: m for m in F.source.morphisms}))


def test_reindexing_matches_stored_arrow(gr_zpow2_3):
    # transport the reindexing along the canonical fiber isos and compare
    M, gr = gr_zpow2_3
    S = straighten(gr.proj)
    for f in M.base.morphisms:
        x, y = M.base.src[f], M.base.tgt[f]
        star = S.arrow_at(f)
        iso_x, iso_y = fiber_iso(gr, x), fiber_iso(gr, y)
        transported = compose_functors(iso_y, star)
        direct = compose_functors(M.arrow_at(f), iso_x)
        assert functors_equal(transported, direct)


def test_reindexing_composite_iso(gr_zpow2_3):
    # mu[f, g](c): (f* ∘ g*)(c) → (g∘f)*(c) is the factor of lift(f, g*c);lift(g, c)
    # through lift(g∘f, c), a vertical iso
    M, gr = gr_zpow2_3
    cleaving = choose_cleaving(gr.proj)
    S, base = straighten(gr.proj, cleaving), M.base
    pairs = [(f, g) for (f, g) in base.table if not base.is_identity(f)][:6]
    for f, g in pairs:
        for c, w in S.mu(f, g).components.items():
            composite = gr.total.comp(cleaving.lift(f, S.arrow_at(g).ob(c)), cleaving.lift(g, c))
            assert w == cartesian_factor(gr.proj, cleaving.lift(base.comp(f, g), c), base.id_of(base.src[f]), composite)
            assert w in gr.total.inverses


def test_invert_total_cases(gr_zpow2_3):
    M, gr = gr_zpow2_3
    base = M.base
    # identity inverts to itself
    idt = gr.total.id_of(gr.obj_id[("2", "*")])
    assert is_iso(gr.total, idt) == idt
    # ((01), (g1,g2)) at (2,*) has an inverse with the inverse base part
    from fibcat.generators import inj_id

    swap = inj_id(2, 2, (1, 0))
    phi = gr.mor_id[(swap, "(0,1)", "*")]
    inv = is_iso(gr.total, phi)
    assert inv is not None
    assert gr.mor_of[inv].base_part == swap
    # non-invertible base part: no inverse
    incl = inj_id(1, 2, (0,))
    assert is_iso(gr.total, gr.mor_id[(incl, "(0)", "*")]) is None


def test_invert_total_closed_form_for_strict(gr_zpow2_3):
    # for strict data the inverse of (f, k) is (f^-1, M(f^-1)(k^-1))
    M, gr = gr_zpow2_3
    base = M.base
    for phi in sorted(gr.total.inverses)[:40]:
        tm = gr.mor_of[phi]
        f, k = tm.base_part, tm.fiber_part
        x = base.src[f]
        f_inv = base.inverses[f]
        k_inv = M.fiber_at(x).inverses[k]
        expected = M.arrow_at(f_inv).mor(k_inv)
        assert gr.mor_of[gr.total.inverses[phi]].fiber_part == expected


def test_vertical_inverses_stay_vertical(groth_corpus):
    for name, M, gr in groth_corpus:
        for phi, inv in gr.total.inverses.items():
            f = gr.mor_of[phi].base_part
            if M.base.is_identity(f):
                assert M.base.is_identity(gr.mor_of[inv].base_part)


def test_fibred_functor_identity(gr_zpow2_3):
    _, gr = gr_zpow2_3
    H = validate_functor(
        gr.total,
        gr.total,
        {o: o for o in gr.total.objects},
        {m: m for m in gr.total.morphisms},
    )
    assert check_fibred_functor(H, gr.proj, gr.proj).holds


def six_morphism_functors():
    """P: A → X and Q: B → X over the arrow f: x → y.  B has six morphisms
    and a two-object fiber over x; theta1 is cartesian, theta0 = v;theta1
    is not."""
    X = validate_category(
        ["x", "y"],
        [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y")],
        {"x": "ix", "y": "iy"},
        [],
    )
    A = validate_category(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("phi", "a", "b")],
        {"a": "ia", "b": "ib"},
        [],
    )
    B = validate_category(
        ["a0", "a1", "bp"],
        [
            ("i0", "a0", "a0"),
            ("i1", "a1", "a1"),
            ("ibp", "bp", "bp"),
            ("v", "a0", "a1"),
            ("theta0", "a0", "bp"),
            ("theta1", "a1", "bp"),
        ],
        {"a0": "i0", "a1": "i1", "bp": "ibp"},
        [("v", "theta1", "theta0")],
    )
    P = validate_functor(A, X, {"a": "x", "b": "y"}, {"ia": "ix", "ib": "iy", "phi": "f"})
    Q = validate_functor(
        B,
        X,
        {"a0": "x", "a1": "x", "bp": "y"},
        {"i0": "ix", "i1": "ix", "v": "ix", "ibp": "iy", "theta0": "f", "theta1": "f"},
    )
    return P, Q


def test_fibred_functor_failure_six_morphisms():
    # H collapses the cartesian lift of A onto the non-cartesian theta0
    P, Q = six_morphism_functors()
    A, B = P.source, Q.source
    assert is_cartesian(Q, "theta1")
    assert not is_cartesian(Q, "theta0")
    H = validate_functor(A, B, {"a": "a0", "b": "bp"}, {"ia": "i0", "ib": "ibp", "phi": "theta0"})
    rep = check_fibred_functor(H, P, Q)
    assert not rep.holds and rep.counterexample == "phi"
    # a mismatched triangle is rejected outright
    H2 = validate_functor(A, B, {"a": "a1", "b": "bp"}, {"ia": "i1", "ib": "ibp", "phi": "theta1"})
    assert check_fibred_functor(H2, P, Q).holds


def test_fibred_nat_trans_verticality(gr_zpow2_3):
    _, gr = gr_zpow2_3
    H = validate_functor(
        gr.total,
        gr.total,
        {o: o for o in gr.total.objects},
        {m: m for m in gr.total.morphisms},
    )
    beta = validate_nat_trans(H, H, {o: gr.total.id_of(o) for o in gr.total.objects})
    assert check_fibred_nat_trans(beta, H, H, gr.proj, gr.proj).holds


def test_slice_projection_is_fibration(fi2):
    gr = grothendieck(slice_indexed(fi2))
    assert is_fibration(gr.proj).holds
    for x in fi2.objects:
        fiber_inclusion(gr.proj, x)  # validates


def test_fiber_of_constant_projection_is_the_fiber_category(fi2):
    gr = grothendieck(delta_const(fi2, fi2))
    for x in fi2.objects:
        iso = fiber_iso(gr, x)
        assert functor_properties(iso).equivalence
        assert len(iso.target.morphisms) == len(fi2.morphisms)


@pytest.mark.parametrize("empty", ["base", "fibers"])
def test_empty_total_category(empty):
    """An empty base, or empty fibers, give the empty total category."""
    nothing, point = discrete_category(""), terminal_category()
    M = delta_const(nothing, point) if empty == "base" else delta_const(point, nothing)
    total = grothendieck(M).total
    assert (total.objects, total.morphisms, total.table) == ((), (), {})


@pytest.mark.parametrize("names", [(), ("a",), ("a", "b")])
def test_cartesian_morphisms_without_generators(names):
    """Out of a discrete category, which has no generator and no
    non-identity, every morphism is cartesian over the point."""
    D, point = discrete_category(names), terminal_category()
    P = validate_functor(D, point, {x: "*" for x in D.objects}, {f: "id" for f in D.morphisms})
    assert all(is_cartesian(P, phi) for phi in D.morphisms)
    assert is_fibration(P) and choose_cleaving(P).entries == {("id", x): "id_" + x for x in names}


def test_is_cartesian_refuses_an_unknown_morphism(gr_zpow2_3):
    with pytest.raises(UnknownMorphism):
        is_cartesian(gr_zpow2_3[1].proj, "no such morphism")


def test_is_cartesian_keeps_each_verdict(z2):
    """A verdict is found once per phi and kept in the functor's cache,
    and so is the code map it reads."""
    P = grothendieck(indexed_gpow(z2, 2)).proj
    phi, other = P.source.morphisms[:2]
    verdict = is_cartesian(P, phi)
    assert P.cache("cartesian") == {phi: verdict}
    P.cache("cartesian")[phi] = "kept"
    assert is_cartesian(P, phi) == "kept"
    codes = P.code_map
    is_cartesian(P, other)
    assert P.code_map is codes and sorted(P.cache("cartesian")) == sorted([phi, other])


def test_total_morphism_id_collision_is_rejected():
    # (id, "u@v") into "w" and (id, "u") into "v@w" both encode as
    # "(id@u@v@w)"
    fib = validate_category(
        ["a", "w", "v@w"],
        [("ia", "a", "a"), ("iw", "w", "w"), ("ivw", "v@w", "v@w"),
         ("u@v", "a", "w"), ("u", "a", "v@w")],
        {"a": "ia", "w": "iw", "v@w": "ivw"},
        [],
    )
    with pytest.raises(CategoryError, match="total morphism id collision"):
        grothendieck(delta_const(terminal_category(), fib))


def test_total_iso_classes_at_small_truncation(z2):
    from fibcat import iso_classes

    gr = grothendieck(indexed_gpow(z2, 2))
    assert len(iso_classes(gr.total)) == 3  # one class per (n, *), n = 0, 1, 2


def test_round_trip_fibers_and_reindexing_across_corpus(groth_corpus):
    """Straightening each projection, with the chosen cleaving and with the
    greatest cartesian lift of each (f, b), which need not be the identity
    over an identity, and taking the Grothendieck construction again gives
    the total back: (f, k, b) ↦ k;lift(f, b) is a functor, bijective on
    objects and on morphisms."""
    unnormalized = 0
    for name, M, gr in groth_corpus:
        P, A = gr.proj, gr.total
        last = {(P.mor(phi), A.tgt[phi]): phi for phi in A.morphisms if is_cartesian(P, phi)}
        for cleaving in (choose_cleaving(P), Cleaving(P, last)):
            F = comparison(P, cleaving)
            assert sorted(F.on_objects.values()) == sorted(A.objects), name
            assert sorted(F.on_morphisms.values()) == sorted(A.morphisms), name
        unnormalized += sum(not A.is_identity(last[(P.mor(i), a)]) for a, i in A.identity.items())
    assert unnormalized > 0


def test_straighten_refuses_a_non_fibration_as_choose_cleaving_does(z2):
    P = hom_as_functor(validate_group_hom(trivial_group(), z2, {"e": "0"}))
    with pytest.raises(NotAFibration) as chosen:
        choose_cleaving(P)
    with pytest.raises(NotAFibration) as straightened:
        straighten(P)
    assert straightened.value.args == chosen.value.args == (("1", "*"),)


def test_straighten_refuses_what_is_no_cleaving(fi2):
    """A missing lift, a lift over another f, a lift into another b and a
    lift that is not cartesian each raise ``NotAFibration((f, b))``."""
    P = grothendieck(delta_const(fi2, fi2)).proj
    X, entries = P.target, choose_cleaving(P).entries
    f, b = next(fb for fb in entries if not X.is_identity(fb[0]))
    g = next(h for h in X.morphisms if h != f and X.tgt[h] == X.tgt[f])
    c = next(d for h, d in entries if h == f and d != b)
    missing = {fb: phi for fb, phi in entries.items() if fb != (f, b)}
    for bad in (missing, {**entries, (f, b): entries[(g, b)]}, {**entries, (f, b): entries[(f, c)]}):
        with pytest.raises(NotAFibration) as refused:
            straighten(P, Cleaving(P, bad))
        assert refused.value.args == ((f, b),)
    Q = six_morphism_functors()[1]
    lifts = {("f", "bp"): "theta0", ("ix", "a0"): "i0", ("ix", "a1"): "i1", ("iy", "bp"): "ibp"}
    assert straighten(Q, Cleaving(Q, {**lifts, ("f", "bp"): "theta1"})).arrow_at("f").ob("bp") == "a1"
    with pytest.raises(NotAFibration) as refused:
        straighten(Q, Cleaving(Q, lifts))
    assert refused.value.args == (("f", "bp"),)
