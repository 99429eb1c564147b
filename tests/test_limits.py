import itertools

import pytest
from hypothesis import given, settings, strategies as st

import limits_reference
from fibcat import (
    Check,
    Cospan,
    NonCommuting,
    NotACospan,
    NotASpan,
    Span,
    Square,
    identity_functor,
    is_pullback_square,
    is_weak_pushout_square,
    preserves_pullbacks,
    preserves_weak_pushouts,
    pullback,
    validate_category,
    validate_functor,
    weak_pushout,
)
from fibcat import limits
from fibcat.generators import fi_truncated, inj_id, parse_inj, span_poset
from fibcat.core import UnknownMorphism
from fibcat.limits import all_cospans, all_spans, as_pullback


def intersection_size(f1: str, f2: str) -> int:
    # combinatorial oracle: pullbacks of injections are image intersections
    _, _, a = parse_inj(f1)
    _, _, b = parse_inj(f2)
    return len(set(a) & set(b))


def test_identity_cospan_pullback(fi3):
    idd = fi3.id_of("2")
    pb = pullback(fi3, Cospan(idd, idd))
    assert pb.apex == "2"
    assert pb.leg1 in fi3.inverses and pb.leg2 in fi3.inverses


def test_disjoint_and_equal_images(fi3):
    pb = pullback(fi3, Cospan(inj_id(1, 2, (0,)), inj_id(1, 2, (1,))))
    assert pb.apex == "0"
    pb2 = pullback(fi3, Cospan(inj_id(1, 2, (0,)), inj_id(1, 2, (0,))))
    assert pb2.apex == "1"
    assert pb2.leg1 in fi3.inverses


def test_not_a_cospan(fi3):
    with pytest.raises(NotACospan):
        pullback(fi3, Cospan(inj_id(1, 2, (0,)), inj_id(1, 3, (0,))))


def test_pullback_squares_roundtrip(fi3):
    for cospan in itertools.islice(all_cospans(fi3), 120):
        pb = pullback(fi3, cospan)
        assert pb is not None
        assert is_pullback_square(fi3, pb.square(cospan))
        assert int(pb.apex) == intersection_size(cospan.f1, cospan.f2)


def test_sub_pullback_square_rejected(fi3):
    # 0 with empty legs under a cospan whose true pullback is 1
    f = inj_id(1, 2, (0,))
    sq = Square(inj_id(0, 1, ()), inj_id(0, 1, ()), f, f)
    assert not is_pullback_square(fi3, sq)


def test_non_commuting_square_raises(fi3):
    sq = Square(
        inj_id(1, 2, (0,)), inj_id(1, 2, (0,)), inj_id(2, 3, (0, 1)), inj_id(2, 3, (1, 2))
    )
    with pytest.raises(NonCommuting):
        is_pullback_square(fi3, sq)


def test_identity_span_weak_pushout(fi3):
    idd = fi3.id_of("1")
    wp = weak_pushout(fi3, Span(idd, idd))
    assert wp.apex == "1"


def test_fi_span_disjoint_union(fi3):
    e = inj_id(0, 1, ())
    wp = weak_pushout(fi3, Span(e, e))
    assert wp.apex == "2"
    assert is_pullback_square(fi3, wp.square)


def test_weak_pushout_absent_without_completions():
    P = span_poset()
    wp = weak_pushout(P, Span("a_to_b", "a_to_c"))
    assert wp is None


def test_not_a_span(fi3):
    with pytest.raises(NotASpan):
        weak_pushout(fi3, Span(inj_id(0, 1, ()), inj_id(1, 2, (0,))))


def test_weak_pushout_always_pullback_square(fi2):
    for span in all_spans(fi2):
        wp = weak_pushout(fi2, span)
        if wp is not None:
            assert is_pullback_square(fi2, wp.square)
            assert is_weak_pushout_square(fi2, wp.square).holds


def test_genuine_pushout_passes_weak_check(fi3):
    # pushout of injections along 1: amalgamated union of sizes 2+2-1 = 3
    f = inj_id(1, 2, (0,))
    wp = weak_pushout(fi3, Span(f, f))
    assert wp.apex == "3"
    check = is_weak_pushout_square(fi3, wp.square)
    assert check.holds


def test_as_pullback_accepts_iso_twists_only(fi3):
    cospan = Cospan(inj_id(1, 2, (0,)), inj_id(1, 2, (0,)))
    pb = pullback(fi3, cospan)
    again = as_pullback(fi3, cospan, pb.leg1, pb.leg2)
    assert again is not None and again.apex == pb.apex
    bad = as_pullback(fi3, cospan, inj_id(0, 1, ()), inj_id(0, 1, ()))
    assert bad is None


def test_as_pullback_rejects_unknown_legs(fi3):
    """An unknown leg is an unknown morphism, as an unknown cospan leg is:
    on either side, never a bare ``KeyError`` or a quiet None."""
    cospan = Cospan(inj_id(1, 2, (0,)), inj_id(1, 2, (0,)))
    pb = pullback(fi3, cospan)
    for legs in (("nope", pb.leg2), (pb.leg1, "nope")):
        with pytest.raises(UnknownMorphism, match="nope"):
            as_pullback(fi3, cospan, *legs)


def test_as_pullback_rejects_non_commuting_legs(parallel_pair):
    # f1 and f2 have no competitor at all; (ix, ix) does not commute over them
    assert as_pullback(parallel_pair, Cospan("f1", "f2"), "ix", "ix") is None


def test_identity_functor_preserves(fi2):
    F = identity_functor(fi2)
    assert preserves_pullbacks(F).holds
    assert preserves_weak_pushouts(F).holds


def test_projection_preserves_both(gr_zpow2_3):
    _, gr = gr_zpow2_3
    assert preserves_pullbacks(gr.proj).holds
    assert preserves_weak_pushouts(gr.proj).holds


def test_collapse_functor_preserves(fi2):
    T = fi_truncated(0)
    F = validate_functor(
        fi2,
        T,
        {x: "0" for x in fi2.objects},
        {m: T.id_of("0") for m in fi2.morphisms},
    )
    assert preserves_pullbacks(F).holds
    assert preserves_weak_pushouts(F).holds


def test_fold_functor_breaks_weak_pushouts(fi2):
    """FI_2 → FI_1 on objects 0, 1 ↦ 0 and 2 ↦ 1 (unique on morphisms, as
    FI_1's hom-sets have at most one element).  The disjoint-union square
    1 ⊔ 1 = 2 over 0 is sent to the square (id_0, id_0; 0→1, 0→1), which is
    not initial: the identity square on 0 is another completion of its
    span, and there is no map 1 → 0 to mediate."""
    T = fi_truncated(1)
    ob = {"0": "0", "1": "0", "2": "1"}
    F = validate_functor(
        fi2, T, ob, {m: T.hom(ob[fi2.src[m]], ob[fi2.tgt[m]])[0] for m in fi2.morphisms}
    )
    assert preserves_weak_pushouts(F) == Check(
        False,
        (
            Square("0>1:", "0>1:", "1>2:0", "1>2:1"),
            (Square("0>0:", "0>0:", "0>0:", "0>0:"), "no_mediator"),
        ),
    )


def test_pullbacks_unique_up_to_iso(fi3):
    # any two terminal competitors are linked by an iso commuting with legs
    cospan = Cospan(inj_id(2, 3, (0, 1)), inj_id(2, 3, (1, 2)))
    pb = pullback(fi3, cospan)
    for (q, u, v) in limits_reference._competitors(fi3, cospan.f1, cospan.f2):
        alt = as_pullback(fi3, cospan, u, v)
        if alt is None:
            continue
        w = pb.mediators[(q, u, v)]
        assert w in fi3.inverses
        assert fi3.comp(w, pb.leg1) == u and fi3.comp(w, pb.leg2) == v


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_random_fi_pullbacks_match_oracle(fi3, data):
    mors = [m for m in fi3.morphisms]
    f1 = data.draw(st.sampled_from(mors))
    candidates = [m for m in mors if fi3.tgt[m] == fi3.tgt[f1]]
    f2 = data.draw(st.sampled_from(candidates))
    pb = pullback(fi3, Cospan(f1, f2))
    assert pb is not None
    assert int(pb.apex) == intersection_size(f1, f2)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_random_fi_weak_pushouts_match_size_oracle(fi4, data):
    # spans small enough that the amalgamated union fits in the truncation
    mors = [m for m in fi4.morphisms if parse_inj(m)[1] <= 2]
    g1 = data.draw(st.sampled_from(mors))
    candidates = [m for m in mors if fi4.src[m] == fi4.src[g1]]
    g2 = data.draw(st.sampled_from(candidates))
    m1, n1, _ = parse_inj(g1)
    _, n2, _ = parse_inj(g2)
    wp = weak_pushout(fi4, Span(g1, g2))
    assert wp is not None
    assert int(wp.apex) == n1 + n2 - m1


def mediator_failure_category():
    """Two parallel maps u1, u2 agreeing after s, plus an idempotent e fixing
    them: the square over (u1, u2) mediates to itself in two ways."""
    return validate_category(
        ["a", "d", "z"],
        [
            ("ia", "a", "a"),
            ("idd", "d", "d"),
            ("iz", "z", "z"),
            ("s", "a", "d"),
            ("u1", "d", "z"),
            ("u2", "d", "z"),
            ("v", "a", "z"),
            ("e", "z", "z"),
        ],
        {"a": "ia", "d": "idd", "z": "iz"},
        [
            ("s", "u1", "v"),
            ("s", "u2", "v"),
            ("v", "e", "v"),
            ("u1", "e", "u1"),
            ("u2", "e", "u2"),
            ("e", "e", "e"),
        ],
    )


def test_mediator_failure_modes_are_distinguished():
    C = mediator_failure_category()
    sq = Square("s", "s", "u1", "u2")
    assert is_pullback_square(C, sq)
    verdict = is_weak_pushout_square(C, sq)
    assert not verdict.holds
    _, reason = verdict.counterexample
    assert reason == "non_unique"
    # so the span (s, s), whose only completions are that square and its
    # mirror, has no weak pushout
    assert weak_pushout(C, Span("s", "s")) is None


def test_disjoint_image_square_is_pullback(fi2):
    sq = Square(inj_id(0, 1, ()), inj_id(0, 1, ()), inj_id(1, 2, (0,)), inj_id(1, 2, (1,)))
    assert is_pullback_square(fi2, sq)


def test_has_pullbacks_is_cached(monkeypatch):
    """Condition 6 and the preservation check read the chosen pullbacks
    from the per-object arrays: neither calls the public ``pullback`` nor
    makes a ``Pullback`` and its mediator table.  A second
    ``has_pullbacks`` returns the cached ``Check``, and a second ``pullback``
    of one cospan the cached ``Pullback``."""
    C = fi_truncated(2)
    calls, made, package = [], [], limits.Pullback

    def counted(C, cospan):
        calls.append(cospan)
        return pullback(C, cospan)

    def making(*args):
        made.append(args)
        return package(*args)

    monkeypatch.setattr(limits, "pullback", counted)
    monkeypatch.setattr(limits, "Pullback", making)
    first = limits.has_pullbacks(C)
    assert first.holds and first.info["cospans"] == 30
    assert limits.preserves_pullbacks(identity_functor(C)).holds
    assert limits.has_pullbacks(C) is first
    assert calls == [] and made == []
    monkeypatch.undo()
    cospan = next(iter(all_cospans(C)))
    assert pullback(C, cospan) is pullback(C, cospan)
