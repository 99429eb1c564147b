import pytest

from fibcat import (
    BadFiberFunctor,
    CoherenceViolation,
    FinFunctor,
    UnitorViolation,
    identity_functor,
    restrict_to_aut,
    strict_functoriality_check,
    validate_functor,
    validate_indexed,
)
from fibcat.generators import (
    chain_poset,
    delta_const,
    terminal_category,
    fi_truncated,
    indexed_gpow,
    slice_indexed,
    square_poset,
)
from fibcat.indexed import IndexedError
from fibcat.groups import (
    TwistedAction,
    cyclic_group,
    group_as_category,
    twisted_from_surjection,
    twisted_indexed_data,
    validate_group_hom,
)


def test_delta_is_valid_and_strict(fi2):
    M = delta_const(fi2, fi2)
    assert M.strict
    assert strict_functoriality_check(M)


def test_gpow_is_valid_and_strict(z2):
    M = indexed_gpow(z2, 2)
    assert M.strict
    assert strict_functoriality_check(M)


def test_contravariance_endpoints_enforced(fi2):
    # a covariant-looking arrow table must be rejected, not auto-flipped
    Y = fi_truncated(1)
    M = delta_const(fi2, Y)
    bad_arrows = dict(M.arrows)
    f = next(m for m in fi2.morphisms if fi2.src[m] != fi2.tgt[m])
    bad_arrows[f] = validate_functor(Y, fi_truncated(2), {o: o for o in Y.objects}, {m: m for m in Y.morphisms})
    with pytest.raises(BadFiberFunctor):
        validate_indexed(fi2, M.fibers, bad_arrows)


def test_missing_compositor_for_nonstrict_data_fails(z2, s3):
    # S3 x Z/2 -> Z/2 with a 3-cycle section: the twisting element is
    # non-central in the kernel, so the arrows are not strictly functorial
    # and identity compositors cannot validate.
    from fibcat.groups import semidirect, trivial_action

    E = semidirect(z2, s3, trivial_action(z2, s3))
    p = validate_group_hom(E, z2, {e: e[1] for e in E.elements})
    section = {"0": "(0,012)", "1": "(1,120)"}
    T = twisted_from_surjection(p, section)
    assert any(v != T.acted.unit for v in T.phi.values())
    base, fiber, arrows, compositors = twisted_indexed_data(T)
    arrow_functors = {
        g: validate_functor(fiber, fiber, ob, mor) for g, (ob, mor) in arrows.items()
    }
    with pytest.raises((CoherenceViolation, UnitorViolation)):
        validate_indexed(base, {"*": fiber}, arrow_functors)
    # the real compositors validate
    M = validate_indexed(base, {"*": fiber}, arrow_functors, compositors)
    assert not M.strict


def test_unit_perturbation_raises_unitor_violation(z4_twisted):
    T = z4_twisted
    phi = dict(T.phi)
    phi[("0", "1")] = "2"  # breaks the normalisation phi(e, g) = e
    base, fiber, arrows, compositors = twisted_indexed_data(
        TwistedAction(T.acting, T.acted, T.act, phi)
    )
    arrow_functors = {
        g: validate_functor(fiber, fiber, ob, mor) for g, (ob, mor) in arrows.items()
    }
    with pytest.raises(UnitorViolation):
        validate_indexed(base, {"*": fiber}, arrow_functors, compositors)


def test_cocycle_perturbation_raises_coherence_violation():
    z8 = cyclic_group(8)
    z4 = cyclic_group(4)
    p = validate_group_hom(z8, z4, {str(i): str(i % 4) for i in range(8)})
    T = twisted_from_surjection(p, {str(i): str(i) for i in range(4)})
    phi = dict(T.phi)
    phi[("1", "1")] = "4" if T.phi[("1", "1")] == "0" else "0"
    base, fiber, arrows, compositors = twisted_indexed_data(
        TwistedAction(T.acting, T.acted, T.act, phi)
    )
    arrow_functors = {
        g: validate_functor(fiber, fiber, ob, mor) for g, (ob, mor) in arrows.items()
    }
    with pytest.raises(CoherenceViolation):
        validate_indexed(base, {"*": fiber}, arrow_functors, compositors)


def test_restrict_to_aut_gpow(z2):
    M = indexed_gpow(z2, 2)
    R = restrict_to_aut(M, "2")
    assert R.base.objects == ("2",)
    assert len(R.base.morphisms) == 2  # S2
    assert set(R.fibers) == {"2"}
    assert R.strict


def test_restrict_to_aut_constant(fi2):
    M = delta_const(fi2, fi_truncated(1))
    R = restrict_to_aut(M, "2")
    assert len(R.base.morphisms) == 2
    assert R.strict


def test_restrict_at_trivial_aut_gives_one_morphism_base():
    M = slice_indexed(square_poset())
    R = restrict_to_aut(M, "b")
    assert len(R.base.morphisms) == 1


def test_slice_indexed_nonstrict_over_fi(fi2):
    M = slice_indexed(fi2)
    assert not M.strict
    # non-strict data fails the 1-categorical functoriality recheck
    assert not strict_functoriality_check(M)


@pytest.mark.parametrize(
    "pair, first",
    [
        (("0>1:", "1>2:0"), ("0>1:", "1>2:0", "2>2:1,0")),
        (("1>2:1", "2>2:1,0"), ("0>1:", "1>2:1", "2>2:1,0")),
    ],
)
def test_first_coherence_violation_is_pinned(fi2, z2, pair, first):
    """Over FI_2 with the fiber Z/2, a compositor that is the flip on one
    composable pair and the identity elsewhere breaks the cocycle law; the
    scan over base triples (f, g, h), each in ``base.morphisms`` order,
    names the first broken triple."""
    fiber = group_as_category(z2)
    M = delta_const(fi2, fiber)
    (star,) = fiber.objects
    flip = next(m for m in fiber.morphisms if not fiber.is_identity(m))
    compositors = {
        fg: {star: flip if fg == pair else fiber.id_of(star)} for fg in fi2.table
    }
    with pytest.raises(CoherenceViolation) as exc:
        validate_indexed(fi2, M.fibers, M.arrows, compositors)
    assert exc.value.args == ((first, star),)


@pytest.mark.parametrize("key", ["fibers", "arrows", "compositors", "unitors"])
def test_entries_for_unknown_keys_rejected(key):
    """A fiber, arrow, compositor or unitor whose key names no base object,
    morphism or composable pair is rejected, as functor tables reject
    unknown ids."""
    M = delta_const(terminal_category(), terminal_category())
    data = {
        "fibers": dict(M.fibers),
        "arrows": dict(M.arrows),
        "compositors": dict(M.compositors),
        "unitors": dict(M.unitors),
    }
    validate_indexed(M.base, **data)
    ghost = ("ghost", "ghost") if key == "compositors" else "ghost"
    data[key][ghost] = {"fibers": M.fiber_at("*"), "arrows": M.arrow_at("id")}.get(key, {"*": "id"})
    with pytest.raises(IndexedError, match="'ghost'"):
        validate_indexed(M.base, **data)


@pytest.mark.parametrize("shared", [False, True])
def test_equal_copy_of_a_fiber_is_no_arrow_endpoint(shared):
    """An arrow must run between the very fiber objects given: an equal copy
    is another category, and the naturality checks would reject it later
    with a misleading error.  Fresh copies per arrow, or one copy shared by
    every arrow, are both named at the first arrow."""
    base = chain_poset(2)
    fiber = fi_truncated(2)
    copy = fi_truncated(2)
    arrows = {
        f: identity_functor(copy if shared else fi_truncated(2)) for f in base.morphisms
    }
    with pytest.raises(BadFiberFunctor) as exc:
        validate_indexed(base, {x: fiber for x in base.objects}, arrows)
    assert exc.value.args == (("contravariance endpoints", base.morphisms[0]),)
    same = {f: identity_functor(copy) for f in base.morphisms}
    assert validate_indexed(base, {x: copy for x in base.objects}, same).strict


def test_arrow_that_is_no_functor_is_rejected():
    """An arrow whose tables are no functor is named, with the first error
    ``validate_functor`` finds, before any naturality check."""
    C = chain_poset(3)
    Y = fi_truncated(1)
    M = delta_const(Y, C)
    on_m = {m: m for m in C.morphisms}
    on_m["p0_to_p1"] = "p0_to_p0"
    bad = FinFunctor(C, C, {x: x for x in C.objects}, on_m)
    f = next(m for m in Y.morphisms if Y.src[m] != Y.tgt[m])
    with pytest.raises(BadFiberFunctor) as exc:
        validate_indexed(Y, M.fibers, {**M.arrows, f: bad})
    what, where, (error,) = exc.value.args[0]
    assert (what, where, error[0]) == ("not a functor", f, "endpoints not preserved")


@pytest.mark.parametrize("lawless_first", [True, False])
def test_first_of_two_bad_arrows_is_named(lawless_first):
    """The arrows' tables are checked all at once and their endpoints one
    by one, and the first bad arrow in the order of ``base.morphisms`` is
    named: one that breaks a functor law before one with an equal copy of
    its fiber as source and target, and the other way round."""
    C = chain_poset(3)
    Y = fi_truncated(2)
    M = delta_const(Y, C)
    on_m = {m: m for m in C.morphisms}
    on_m["p0_to_p1"] = "p0_to_p0"
    lawless = FinFunctor(C, C, {x: x for x in C.objects}, on_m)
    elsewhere = identity_functor(chain_poset(3))
    early, late = Y.morphisms[1], Y.morphisms[-1]
    bad = (lawless, elsewhere) if lawless_first else (elsewhere, lawless)
    with pytest.raises(BadFiberFunctor) as exc:
        validate_indexed(Y, M.fibers, {**M.arrows, early: bad[0], late: bad[1]})
    if lawless_first:
        what, where, (error,) = exc.value.args[0]
        assert (what, where, error[0]) == ("not a functor", early, "endpoints not preserved")
    else:
        assert exc.value.args == (("contravariance endpoints", early),)


def test_light_coherence_sweep_is_small():
    """The coherence sweep visits the triples (f, g, h) with g in S: on
    FI_5 about a thirtieth of the composable triples."""
    C = fi_truncated(5)
    into, out = {}, {}
    for (x, y), fs in C.homs.items():
        into[y] = into.get(y, 0) + len(fs)
        out[x] = out.get(x, 0) + len(fs)
    swept = sum(into[C.src[g]] * out[C.tgt[g]] for g in C.generators)
    every = sum(into[C.src[g]] * out[C.tgt[g]] for g in C.morphisms)
    assert (swept, every) == (198_289, 6_061_413)
