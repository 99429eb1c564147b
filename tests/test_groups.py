import pytest
from hypothesis import given, settings, strategies as st

from fibcat import grothendieck, is_fibration
from fibcat.functors import compose_functors, functors_equal
from fibcat.groups import (
    Law1Violation,
    Law2Violation,
    NotAGroup,
    NotAHomomorphism,
    NotAnAction,
    NotASection,
    NotSurjective,
    TwistedAction,
    automorphism_group,
    category_as_group,
    compose_homs,
    cyclic_group,
    extension_from_twisted,
    find_homomorphic_section,
    group_as_category,
    group_isomorphism,
    groups_isomorphic,
    hom_as_functor,
    identity_hom,
    inversion_action,
    is_split,
    is_surjective_hom,
    kernel_subgroup,
    semidirect,
    strict_twisted,
    trivial_action,
    trivial_group,
    twisted_from_surjection,
    twisted_to_indexed,
    validate_group,
    validate_group_hom,
    validate_right_action,
    validate_twisted_action,
)
from search_reference import sections_of


def test_validate_group_rejects_broken_tables():
    with pytest.raises(NotAGroup):
        validate_group(["a", "b"], {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"})


def test_claimed_unit_outside_the_group_rejected(z2):
    with pytest.raises(NotAGroup, match="claimed unit 'zz' is not an element"):
        validate_group(z2.elements, z2.mult, "zz")


def test_hom_entries_for_unknown_elements_rejected(z2):
    with pytest.raises(NotAHomomorphism, match="'2'"):
        validate_group_hom(z2, z2, {"0": "0", "1": "1", "2": "0"})


def test_cyclic_and_symmetric_basics(z3, s3):
    assert z3.order_of("1") == 3
    assert len(s3) == 6 and not s3.is_abelian()
    assert s3.mul("012", "120") == "120"


def test_semidirect_trivial_action_is_product(z2, z3):
    sd = semidirect(z2, z3, trivial_action(z2, z3))
    assert groups_isomorphic(sd, cyclic_group(6))


def test_semidirect_inversion_is_symmetric(z2, z3, s3):
    sd = semidirect(z2, z3, inversion_action(z2, z3))
    assert len(sd) == 6 and not sd.is_abelian()
    assert groups_isomorphic(sd, s3)


def test_semidirect_with_trivial_fiber(z3):
    t = trivial_group()
    sd = semidirect(z3, t, trivial_action(z3, t))
    assert groups_isomorphic(sd, z3)


def test_semidirect_agrees_with_grothendieck(z2, z3):
    act = inversion_action(z2, z3)
    sd = semidirect(z2, z3, act)
    ext = extension_from_twisted(strict_twisted(z2, z3, act))
    assert groups_isomorphic(sd, ext.total)


def test_not_an_action_rejected(z2, z3):
    act = trivial_action(z2, z3)
    act["1"] = {"0": "0", "1": "2", "2": "2"}  # not a bijection
    with pytest.raises(NotAnAction):
        semidirect(z2, z3, act)


def test_strict_twisted_validates(z2, z3):
    T = strict_twisted(z2, z3, inversion_action(z2, z3))
    assert validate_twisted_action(T).holds


def test_z4_twisted_action_values(z4_twisted):
    T = z4_twisted
    assert T.phi[("1", "1")] == "2"
    assert validate_twisted_action(T).holds
    assert not twisted_to_indexed(T).strict


def test_law_violation_witnesses():
    z8, z4 = cyclic_group(8), cyclic_group(4)
    p = validate_group_hom(z8, z4, {str(i): str(i % 4) for i in range(8)})
    T = twisted_from_surjection(p, {str(i): str(i) for i in range(4)})
    phi = dict(T.phi)
    phi[("1", "1")] = "4" if T.phi[("1", "1")] == "0" else "0"
    T2 = TwistedAction(T.acting, T.acted, T.act, phi)
    rep = validate_twisted_action(T2)
    assert not rep.holds and isinstance(rep.counterexample, Law2Violation)
    with pytest.raises(Law2Violation, match=r"\('1', '1', '2'\)"):
        twisted_to_indexed(T2)
    # an action table that moves the unit is no functor
    act = {g: dict(m) for g, m in T.act.items()}
    act["1"] = {k: z8.mul(k, "4") for k in T.acted.elements}
    rep1 = validate_twisted_action(TwistedAction(T.acting, T.acted, act, T.phi))
    assert not rep1.holds and rep1.counterexample.args[0][:2] == ("not a functor", "1")
    # one that is a functor but no bijection breaks law 1 at (1, 1)
    act["1"] = {k: "0" for k in T.acted.elements}
    rep2 = validate_twisted_action(TwistedAction(T.acting, T.acted, act, T.phi))
    assert isinstance(rep2.counterexample, Law1Violation)


def test_extension_from_twisted_z4(z4_twisted, z4):
    ext = extension_from_twisted(z4_twisted)
    assert len(ext.total) == len(z4_twisted.acting) * len(z4_twisted.acted)
    assert max(ext.total.order_of(e) for e in ext.total.elements) == 4
    assert groups_isomorphic(ext.total, z4)
    assert not is_split(ext.proj)


def test_perturbed_phi_reconstructs_klein(z4_twisted):
    T = z4_twisted
    phi = {k: T.acted.unit for k in T.phi}
    ext = extension_from_twisted(TwistedAction(T.acting, T.acted, T.act, phi))
    orders = sorted(ext.total.order_of(e) for e in ext.total.elements)
    assert orders == [1, 2, 2, 2]  # Klein four-group, not Z/4


def test_trivial_twisted_gives_direct_product(z2, z3):
    ext = extension_from_twisted(strict_twisted(z2, z3, trivial_action(z2, z3)))
    assert groups_isomorphic(ext.total, cyclic_group(6))


def test_twisted_from_surjection_preconditions(z4, z2):
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    with pytest.raises(NotASection):
        twisted_from_surjection(p, {"0": "2", "1": "1"})
    with pytest.raises(NotASection):
        twisted_from_surjection(p, {"0": "0", "1": "0"})
    q = validate_group_hom(trivial_group(), z2, {"e": "0"})
    with pytest.raises(NotSurjective):
        twisted_from_surjection(q, {"0": "e"})


def test_split_extension_collapses_phi(s3, z2):
    parity = {e: ("0" if e in ("012", "120", "201") else "1") for e in s3.elements}
    p = validate_group_hom(s3, z2, parity)
    s = find_homomorphic_section(p)
    assert s is not None and is_split(p)
    T = twisted_from_surjection(p, s.mapping)
    assert all(v == T.acted.unit for v in T.phi.values())


def test_z4_not_split_but_identity_projection_is(z4, z2):
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    assert not is_split(p)
    idp = identity_hom(z2)
    assert is_split(idp)
    assert len(kernel_subgroup(idp)) == 1


def test_round_trip_reconstruction(z4, z2):
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    for s in sections_of(p):
        T = twisted_from_surjection(p, s)
        assert validate_twisted_action(T).holds
        ext = extension_from_twisted(T)
        assert groups_isomorphic(ext.total, z4)
        assert len(ext.total) == len(z2) * len(kernel_subgroup(p))


def test_groups_read_off_a_category_keep_its_object(z4_twisted):
    """The group of a Grothendieck total is that total, on its own object,
    and so is the kernel cut out of it; the functor of a homomorphism out
    of it, and the indexed category of the twisted action on that kernel,
    are built on that object."""
    ext = extension_from_twisted(z4_twisted)
    (x,) = group_as_category(ext.total).objects
    assert x != "*"
    assert is_fibration(hom_as_functor(ext.proj)).holds
    T = twisted_from_surjection(ext.proj, next(sections_of(ext.proj)))
    assert group_as_category(T.acted).objects == (x,)
    M = twisted_to_indexed(T)
    assert groups_isomorphic(extension_from_twisted(T).total, ext.total) and M.fibers["*"] is T.acted.category


def test_split_iff_some_section_strictifies(s3, z2, z4):
    parity = {e: ("0" if e in ("012", "120", "201") else "1") for e in s3.elements}
    for p, expect in [
        (validate_group_hom(s3, z2, parity), True),
        (validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"}), False),
    ]:
        strictifiable = any(
            all(
                v == kernel_subgroup(p).unit
                for v in twisted_from_surjection(p, s).phi.values()
            )
            for s in sections_of(p)
        )
        assert is_split(p) == expect == strictifiable


def test_surjection_iff_fibration_on_corpus_homs(z2, z3, z4, s3):
    parity = {e: ("0" if e in ("012", "120", "201") else "1") for e in s3.elements}
    homs = [
        validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"}),
        validate_group_hom(s3, z2, parity),
        validate_group_hom(trivial_group(), z2, {"e": "0"}),
        identity_hom(z3),
        validate_group_hom(z2, z4, {"0": "0", "1": "2"}),
        validate_group_hom(z3, trivial_group(), {e: "e" for e in z3.elements}),
    ]
    for h in homs:
        assert is_fibration(hom_as_functor(h)).holds == is_surjective_hom(h)


def test_homomorphisms_keep_their_functor(z3, s3):
    """A homomorphism keeps the functor ``validate_functor`` checked, so its
    functor and the composite of two are read off it, not checked again; a
    map that is no functor fails with ``validate_functor``'s first failure."""
    inc = validate_group_hom(z3, s3, {"0": "012", "1": "120", "2": "201"})
    conj = validate_group_hom(s3, s3, {g: s3.conjugate(g, "102") for g in s3.elements})
    assert hom_as_functor(inc) is inc.functor and inc.functor.source is z3.category
    both = compose_homs(inc, conj)
    assert functors_equal(both.functor, compose_functors(inc.functor, conj.functor))
    assert both.mapping == {a: s3.conjugate(b, "102") for a, b in inc.mapping.items()}
    assert compose_homs(identity_hom(z3), inc).mapping == inc.mapping
    with pytest.raises(NotAHomomorphism) as exc:
        validate_group_hom(z3, s3, {"0": "102", "1": "120", "2": "201"})
    assert exc.value.args == (("identity not preserved", "*"),)
    with pytest.raises(NotAHomomorphism) as exc:
        validate_group_hom(z3, s3, {"0": "012", "1": "102", "2": "201"})
    assert exc.value.args == (("composite not preserved", "1", "1"),)


def test_automorphism_group_is_wreath_sized(gr_zpow2_3):
    _, gr = gr_zpow2_3
    aut = automorphism_group(gr.total, gr.obj_id[("2", "*")])
    assert len(aut) == 8  # 2^2 * 2!


def test_aut_of_total_object_matches_restricted_extension(gr_zpow2_3, z2):
    # the automorphism group of (2,*) is the extension of Aut(2) by (Z/2)^2
    from fibcat import restrict_to_aut

    M, gr = gr_zpow2_3
    aut = automorphism_group(gr.total, gr.obj_id[("2", "*")])
    R = restrict_to_aut(M, "2")
    grr = grothendieck(R)
    assert groups_isomorphic(aut, category_as_group(grr.total))


def test_group_category_round_trip(s3):
    C = group_as_category(s3)
    G = category_as_group(C)
    assert group_isomorphism(G, s3) is not None


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_any_section_gives_valid_twisted_action(data, z4, z2, s3):
    parity = {e: ("0" if e in ("012", "120", "201") else "1") for e in s3.elements}
    p = data.draw(
        st.sampled_from(
            [
                validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"}),
                validate_group_hom(s3, z2, parity),
            ]
        )
    )
    sections = list(sections_of(p))
    s = data.draw(st.sampled_from(sections))
    T = twisted_from_surjection(p, s)
    assert validate_twisted_action(T).holds
    # round trip stays isomorphic to the original total group
    assert groups_isomorphic(extension_from_twisted(T).total, p.source)


def test_entries_for_unknown_elements_rejected(z4, z2, z3):
    """An action or a section entry for an element outside the group is no
    part of it; both were once silently kept or dropped."""
    act = trivial_action(z2, z3)
    assert "ghost" not in validate_right_action(z2, z3, act)
    with pytest.raises(NotAnAction, match="'ghost'"):
        validate_right_action(z2, z3, act | {"ghost": dict(act["0"])})
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    twisted_from_surjection(p, {"0": "0", "1": "1"})
    with pytest.raises(NotASection, match="'ghost'"):
        twisted_from_surjection(p, {"0": "0", "1": "1", "ghost": "2"})
