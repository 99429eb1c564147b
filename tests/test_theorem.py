import pytest

from fibcat import (
    HypothesesNotVerified,
    SearchBudgetExceeded,
    UnknownMorphism,
    Check,
    Cospan,
    Span,
    Square,
    WeakReversibilityWitness,
    WitnessInvalid,
    check_gray_pullbacks,
    check_hypotheses,
    construct_weak_pushout_total,
    grothendieck,
    identity_functor,
    is_weak_pushout_square,
    search_witness,
    validate_functor,
    validate_indexed,
    validate_witness,
    verify_main_theorem,
    weak_pushout,
)
from fibcat.generators import (
    chain_poset,
    codiscrete_category,
    cospan_poset,
    delta_const,
    fi_truncated,
    inj_id,
    slice_indexed,
    square_poset,
    terminal_category,
    thin_category,
)
from fibcat.theorem import gpow_witness, invertible_arrow_witness


def test_hypotheses_hold_for_gpow(gr_zpow2_3, z2):
    M, gr = gr_zpow2_3
    hyp = check_hypotheses(M, gpow_witness(z2, M), gr=gr)
    assert hyp.h1.holds and hyp.h2.holds and hyp.h3.holds and hyp.h4.holds
    assert hyp.holds


def test_hypotheses_hold_for_constant(fi2):
    M = delta_const(fi2, fi2)
    hyp = check_hypotheses(M, invertible_arrow_witness(M))
    assert hyp.holds


def test_h1_fails_for_idempotent_fiber(idempotent_monoid):
    T = terminal_category()
    M = validate_indexed(
        T, {"*": idempotent_monoid}, {"id": identity_functor(idempotent_monoid)}
    )
    hyp = check_hypotheses(M, invertible_arrow_witness(M))
    assert not hyp.h1.holds
    assert not hyp.holds
    verdict = verify_main_theorem(M, invertible_arrow_witness(M))
    # negative hypotheses predict nothing; the direct audit fails too and
    # that is not an alarm
    assert not verdict.conclusion_checked and not verdict.alarm
    assert not verdict.total_fi_type.holds


def test_missing_witness_fails_h4(gr_zpow2_3):
    M, gr = gr_zpow2_3
    hyp = check_hypotheses(M, None, gr=gr)
    assert not hyp.h4.holds and hyp.h1.holds


def test_invalid_witness_names_the_law(gr_zpow2_3, z2):
    M, gr = gr_zpow2_3
    w = gpow_witness(z2, M)
    f = inj_id(0, 1, ())
    bad = WeakReversibilityWitness(
        {**w.pushforwards, f: identity_functor(M.fiber_at("0"))}, w.units
    )
    with pytest.raises(WitnessInvalid):
        validate_witness(M, bad)


def test_witness_endpoints_are_compared_by_identity():
    """A pushforward whose source or target is an equal copy of the fiber,
    not the fiber itself, is named as such, not as a unit that fails."""
    M = delta_const(chain_poset(2), fi_truncated(2))
    w = invertible_arrow_witness(M)
    validate_witness(M, w)
    f = next(m for m in M.base.morphisms if not M.base.is_identity(m))
    x, y = M.base.src[f], M.base.tgt[f]
    copy = fi_truncated(2)
    same = {m: m for m in copy.morphisms}, {a: a for a in copy.objects}
    for push, which in (
        (identity_functor(copy), "source"),
        (validate_functor(M.fiber_at(x), copy, same[1], same[0]), "target"),
        (validate_functor(copy, M.fiber_at(y), same[1], same[0]), "source"),
    ):
        bad = WeakReversibilityWitness({**w.pushforwards, f: push}, w.units)
        with pytest.raises(WitnessInvalid) as caught:
            validate_witness(M, bad)
        assert caught.value.args == (("pushforward " + which, f),)


def test_exhausted_search_fails_h4():
    """A search that finds no pushforward is a failed hypothesis, with a
    note, not an error."""
    M = slice_indexed(fi_truncated(2))
    hyp = check_hypotheses(M, None, search=True, budget=50_000)
    assert hyp.h4.counterexample == (("no pushforward found by search", "0>1:"),)
    assert not hyp.h4.holds and "bounded search found no witness" in hyp.notes


def test_vacuous_h2_path(swap_indexed):
    hyp = check_hypotheses(swap_indexed, invertible_arrow_witness(swap_indexed))
    assert hyp.h2.holds and hyp.h2.info["vacuous_pairs"] == 2
    assert hyp.holds


def test_search_finds_identity_witness():
    X = chain_poset(2)
    M = delta_const(X, chain_poset(2))
    w = search_witness(M, budget=20_000)
    validate_witness(M, w)
    hyp = check_hypotheses(M, None, search=True, budget=20_000)
    assert hyp.h4.holds and any("search" in n for n in hyp.notes)


def test_search_budget_exceeded(gr_zpow2_3):
    M, gr = gr_zpow2_3
    with pytest.raises(SearchBudgetExceeded):
        check_hypotheses(M, None, gr=gr, search=True, budget=5)


def test_construct_weak_pushout_identity_span(gr_zpow2_3, z2):
    M, gr = gr_zpow2_3
    w = gpow_witness(z2, M)
    hyp = check_hypotheses(M, w, gr=gr)
    t = gr.obj_id[("1", "*")]
    idt = gr.total.id_of(t)
    sq = construct_weak_pushout_total(M, w, t, idt, idt, gr=gr, hypotheses=hyp)
    assert is_weak_pushout_square(gr.total, sq).holds
    assert gr.total.tgt[sq.right] == t


def test_construct_weak_pushout_matches_brute_force(gr_zpow2_3, z2):
    M, gr = gr_zpow2_3
    w = gpow_witness(z2, M)
    hyp = check_hypotheses(M, w, gr=gr)
    f0 = inj_id(0, 1, ())
    leg = gr.mor_id[(f0, "()", "*")]
    sq = construct_weak_pushout_total(M, w, gr.obj_id[("0", "*")], leg, leg, gr=gr, hypotheses=hyp)
    assert gr.total.tgt[sq.right] == gr.obj_id[("2", "*")]
    assert is_weak_pushout_square(gr.total, sq).holds
    bf = weak_pushout(gr.total, Span(leg, leg))
    assert bf.apex == gr.obj_id[("2", "*")]


def test_construct_weak_pushout_constant_case_is_componentwise(fi2):
    M = delta_const(fi2, fi2)
    gr = grothendieck(M)
    w = invertible_arrow_witness(M)
    hyp = check_hypotheses(M, w, gr=gr)
    f = inj_id(0, 1, ())
    k = inj_id(0, 1, ())
    leg1 = gr.mor_id[(f, k, "1")]
    leg2 = gr.mor_id[(f, inj_id(0, 0, ()), "0")]
    apex = gr.obj_id[("0", "0")]
    sq = construct_weak_pushout_total(M, w, apex, leg1, leg2, gr=gr, hypotheses=hyp)
    assert is_weak_pushout_square(gr.total, sq).holds
    # componentwise: base pushout and fiber pushout assembled independently
    base_wp = weak_pushout(fi2, Span(f, f))
    fib_wp = weak_pushout(fi2, Span(k, inj_id(0, 0, ())))
    x, a = gr.obj_of[gr.total.tgt[sq.right]]
    assert x == base_wp.apex and a == fib_wp.apex


def test_construct_rejects_unknown_legs(gr_zpow2_3, z2):
    """An unknown leg of the span is an unknown morphism of the total, on
    either side."""
    M, gr = gr_zpow2_3
    w = gpow_witness(z2, M)
    hyp = check_hypotheses(M, w, gr=gr)
    t = gr.obj_id[("1", "*")]
    idt = gr.total.id_of(t)
    for legs in (("nope", idt), (idt, "nope")):
        with pytest.raises(UnknownMorphism, match="nope"):
            construct_weak_pushout_total(M, w, t, *legs, gr=gr, hypotheses=hyp)


def test_construct_requires_verified_hypotheses(gr_zpow2_3):
    M, gr = gr_zpow2_3
    t = gr.obj_id[("1", "*")]
    idt = gr.total.id_of(t)
    with pytest.raises(HypothesesNotVerified):
        construct_weak_pushout_total(M, None and object(), t, idt, idt, gr=gr,
                                     hypotheses=check_hypotheses(M, None, gr=gr))


def test_verify_main_theorem_gpow(gr_zpow2_3, z2):
    M, gr = gr_zpow2_3
    verdict = verify_main_theorem(M, gpow_witness(z2, M), gr=gr)
    assert verdict.hypotheses.holds
    assert verdict.confirmed and not verdict.alarm
    assert verdict.total_fi_type.holds
    assert verdict.proj_preserves_pullbacks.holds
    assert verdict.proj_preserves_weak_pushouts.holds


def test_verify_main_theorem_product_of_truncations(fi2):
    M = delta_const(fi2, fi2)
    verdict = verify_main_theorem(M, invertible_arrow_witness(M))
    assert verdict.confirmed and not verdict.alarm


def test_gray_biconditional_holds(gr_zpow2_3):
    _, gr = gr_zpow2_3
    rep = check_gray_pullbacks(gr.proj)
    assert rep.left_side and rep.right_side and rep.biconditional_holds


def test_gray_biconditional_constant(fi2):
    gr = grothendieck(delta_const(chain_poset(2), square_poset()))
    rep = check_gray_pullbacks(gr.proj)
    assert rep.left_side and rep.right_side and rep.biconditional_holds


def test_gray_mutation_flips_both_sides():
    # deleting the apex from the fiber removes a fiber pullback and the
    # corresponding total pullback at the same time
    gr = grothendieck(delta_const(chain_poset(2), cospan_poset()))
    rep = check_gray_pullbacks(gr.proj)
    assert not rep.left_side and not rep.right_side
    assert rep.biconditional_holds


@pytest.mark.parametrize("inclusion_first", [True, False])
def test_gray_scan_stops_at_the_first_failing_fiber(inclusion_first):
    # In the fiber {a, b, c, d} the meet of b, c is a, but in the total
    # category it is e, so that inclusion does not preserve pullbacks; the
    # fiber {p, q, r} has no pullback of p -> r <- q.  The fiber scan stops
    # at whichever of the two comes first.
    order = {"a": "abcde", "b": "bd", "c": "cd", "d": "d", "e": "ebcd", "p": "pr", "q": "qr", "r": "r"}
    A = thin_category(order, lambda x, y: y in order[x])
    Y = codiscrete_category("abc")
    incl, lack = ("a", "b") if inclusion_first else ("b", "a")
    ob = {x: incl for x in "abcd"} | {"e": "c"} | {x: lack for x in "pqr"}
    P = validate_functor(
        A, Y, ob, {f: Y.hom(ob[A.src[f]], ob[A.tgt[f]])[0] for f in A.morphisms}
    )
    rep = check_gray_pullbacks(P)
    square = Square("a_to_b", "a_to_c", "b_to_d", "c_to_d")
    cospan = Cospan("p_to_r", "q_to_r")
    if inclusion_first:
        assert rep.fibers_have_pullbacks == Check(True)
        assert rep.inclusions_preserve == Check(False, (incl, square))
    else:
        assert rep.fibers_have_pullbacks == Check(False, (lack, cospan))
        assert rep.inclusions_preserve == Check(True)
    assert rep.total_has_pullbacks == Check(False, cospan)
    assert not rep.left_side and not rep.right_side
