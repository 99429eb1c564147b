"""Hypotheses and conclusion of the main transfer result, run on instances.

Given an indexed category M over an FI-type base, four hypotheses are
audited:

  h1  every fiber is FI-type
  h2  every map a → M(f)(a) over a base endomorphism f is invertible
  h3  the fiber inclusions into the total category preserve pullbacks
  h4  M is weakly reversible: each base morphism f carries a weak-pushout
      preserving pushforward f_! with f_!∘f* the identity on objects and a
      unit transformation id ⇒ f*∘f_!

Without a witness, ``search_witness`` finds one per f: the first
pushforward that ``functors.enumerate_functors`` yields, with f_! fixed on
the objects that f* hits, that preserves weak pushouts and has a unit.

When they hold, the total category is FI-type and the projection preserves
pullbacks and weak pushouts; ``verify_main_theorem`` audits that conclusion
directly and raises an alarm on any discrepancy (which would indicate an
implementation bug, not a counterexample).

Terminology note: the source material uses "locally reversible" and "weakly
reversible" for the same notion; this module uses the latter throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Check, CategoryError, first_failure
from .functors import (
    FinFunctor,
    SearchBudgetExceeded,
    compose_functors,
    enumerate_functors,
    identity_functor,
    validate_functor,
    validate_nat_trans,
)
from .fitype import FiTypeReport, check_fi_type, endomorphism_invertibility
from .generators import parse_inj, tuple_id
from .groth import GrothResult, fiber, fiber_inclusion, grothendieck
from .indexed import IndexedCat
from .limits import (
    Cospan,
    Span,
    Square,
    has_pullbacks,
    preserves_pullbacks,
    preserves_weak_pushouts,
    weak_pushout,
)


TERMINOLOGY_NOTE = (
    "'locally reversible' and 'weakly reversible' name the same notion; "
    "reports use the latter"
)


class WitnessInvalid(CategoryError):
    pass


class HypothesesNotVerified(CategoryError):
    pass


@dataclass(frozen=True, eq=False)
class WeakReversibilityWitness:
    """Pushforwards and units exhibiting weak reversibility.

    ``pushforwards[f]`` is a functor fiber(x) → fiber(y) for f: x→y;
    ``units[f]`` maps fiber(x)-objects a to a component a → M(f)(f_!(a)).
    """

    pushforwards: dict
    units: dict


def gpow_witness(G, M: IndexedCat) -> WeakReversibilityWitness:
    """Witness for ``generators.indexed_gpow(G, N)``: extend tuples by the unit."""
    pushforwards, units = {}, {}
    for f in M.base.morphisms:
        m, n, imgs = parse_inj(f)
        fx, fy = M.fiber_at(str(m)), M.fiber_at(str(n))
        at = dict(zip(imgs, range(m)))  # the entry of t that lands at each place
        tuples = itertools.product(G.elements, repeat=m)
        on_m = {tuple_id(t): tuple_id([t[at[i]] if i in at else G.unit for i in range(n)]) for t in tuples}
        pushforwards[f] = validate_functor(fx, fy, {"*": "*"}, on_m)
        units[f] = {"*": fx.id_of("*")}
    return WeakReversibilityWitness(pushforwards, units)


def invertible_arrow_witness(M: IndexedCat) -> WeakReversibilityWitness:
    """When every arrow functor is invertible, push forward along the inverse.

    Covers constant indexed categories (identity arrows), one-object
    groupoid fibers (automorphism arrows), and group actions on fibers.
    Raises ValueError when some arrow functor is not invertible.
    """
    pushforwards, units = {}, {}
    for f in M.base.morphisms:
        F = M.arrow_at(f)
        ob = {v: k for k, v in F.on_objects.items()}
        mor = {v: k for k, v in F.on_morphisms.items()}
        if len(ob) != len(F.on_objects) or len(mor) != len(F.on_morphisms):
            raise ValueError("arrow functor not invertible at %r" % f)
        pushforwards[f] = validate_functor(F.target, F.source, ob, mor)
        units[f] = {a: F.target.id_of(a) for a in F.target.objects}
    return WeakReversibilityWitness(pushforwards, units)


def validate_witness(M: IndexedCat, witness: WeakReversibilityWitness) -> None:
    """Raise WitnessInvalid naming the law and morphism that fail."""
    base = M.base
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        push = witness.pushforwards.get(f)
        if push is None:
            raise WitnessInvalid(("missing pushforward", f))
        if push.source is not M.fiber_at(x):
            raise WitnessInvalid(("pushforward source", f))
        if push.target is not M.fiber_at(y):
            raise WitnessInvalid(("pushforward target", f))
        Mf = M.arrow_at(f)
        for b in M.fiber_at(y).objects:
            if push.ob(Mf.ob(b)) != b:
                raise WitnessInvalid(("pushforward-after-reindexing not identity on objects", f))
        if not preserves_weak_pushouts(push):
            raise WitnessInvalid(("pushforward does not preserve weak pushouts", f))
        comps = witness.units.get(f)
        if comps is None:
            raise WitnessInvalid(("missing unit", f))
        try:
            validate_nat_trans(identity_functor(M.fiber_at(x)), compose_functors(push, Mf), comps)
        except CategoryError as exc:
            raise WitnessInvalid(("unit not natural", f, exc.args)) from exc


@dataclass(frozen=True)
class HypothesesReport:
    h1: Check
    h2: Check
    h3: Check
    h4: Check
    fiber_reports: dict
    notes: tuple = ()

    @property
    def holds(self) -> bool:
        return bool(self.h1 and self.h2 and self.h3 and self.h4)


def _search_pushforward(M: IndexedCat, f: str, budget: list):
    """The first pushforward for f, in ``enumerate_functors``' order, that
    preserves weak pushouts and has a unit, with the first such unit, or
    None.  f_!∘f* is the identity on objects, so f_! is forced on the
    objects that M(f) hits, and it cannot exist when M(f) identifies two."""
    fib_x, fib_y = M.fiber_at(M.base.src[f]), M.fiber_at(M.base.tgt[f])
    Mf, id_x, forced = M.arrow_at(f), identity_functor(fib_x), {}
    for b in fib_y.objects:
        a = Mf.ob(b)
        if forced.setdefault(a, b) != b:
            return None  # M(f) identifies objects: no pushforward can undo it
    try:
        for push in enumerate_functors(fib_x, fib_y, forced, budget=budget):
            if not preserves_weak_pushouts(push):
                continue
            comp = compose_functors(push, Mf)
            for unit in itertools.product(*(fib_x.hom(a, comp.ob(a)) for a in fib_x.objects)):
                comps = dict(zip(fib_x.objects, unit))
                try:
                    validate_nat_trans(id_x, comp, comps)
                except CategoryError:
                    continue
                return push, comps
    except SearchBudgetExceeded:
        raise SearchBudgetExceeded(f) from None
    return None


def search_witness(M: IndexedCat, budget: int = 50_000) -> WeakReversibilityWitness:
    """Exhaustive fallback when no witness is supplied: for each base
    morphism f in order, the first pushforward and unit that
    ``_search_pushforward`` finds.  One ``budget``, in the units of
    ``functors.enumerate_functors``, is shared by every f; running out
    raises ``SearchBudgetExceeded(f)`` at the f being searched."""
    budget_box = [budget]
    pushforwards, units = {}, {}
    for f in M.base.morphisms:
        found = _search_pushforward(M, f, budget_box)
        if found is None:
            raise WitnessInvalid(("no pushforward found by search", f))
        pushforwards[f], units[f] = found
    return WeakReversibilityWitness(pushforwards, units)


def check_hypotheses(
    M: IndexedCat,
    witness: WeakReversibilityWitness = None,
    gr: GrothResult = None,
    search: bool = False,
    budget: int = 50_000,
) -> HypothesesReport:
    gr = gr if gr is not None else grothendieck(M)
    fiber_reports = {x: check_fi_type(M.fiber_at(x)) for x in M.base.objects}
    bad = next((x for x, r in sorted(fiber_reports.items()) if not r.holds), None)
    h1 = Check(bad is None, bad)

    h2 = endomorphism_invertibility(M)

    h3 = first_failure(
        M.base.objects, lambda x: preserves_pullbacks(fiber_inclusion(gr.proj, x))
    )

    notes = (TERMINOLOGY_NOTE,)
    h4 = Check(False, "no weak-reversibility witness supplied")
    try:
        if witness is None and search:
            witness = search_witness(M, budget)
            notes = notes + ("witness found by bounded search",)
        if witness is not None:
            validate_witness(M, witness)
            h4 = Check(True)
    except WitnessInvalid as exc:
        h4 = Check(False, exc.args)
        if witness is None:
            notes = notes + ("bounded search found no witness",)
    return HypothesesReport(h1, h2, h3, h4, fiber_reports, notes)


def construct_weak_pushout_total(
    M: IndexedCat,
    witness: WeakReversibilityWitness,
    apex: str,
    leg1: str,
    leg2: str,
    gr: GrothResult = None,
    hypotheses: HypothesesReport = None,
) -> Square:
    """Weak pushout square in the total category, built fiberwise.

    Follows the transfer proof: take the weak pushout of the base span,
    straighten the fiber legs through the pushforwards, take the weak
    pushout in the fiber over the new base apex, and bend the mediating legs
    back with the units.  The caller gets a square in the total category;
    its universal property can be confirmed with the brute-force check.
    """
    gr = gr if gr is not None else grothendieck(M)
    if hypotheses is None:
        hypotheses = check_hypotheses(M, witness, gr=gr)
    if not hypotheses.holds:
        raise HypothesesNotVerified(tuple(h for h in ("h1", "h2", "h3", "h4") if not getattr(hypotheses, h).holds))
    total = gr.total
    total.require_morphism(leg1)
    total.require_morphism(leg2)
    if total.src[leg1] != apex or total.src[leg2] != apex:
        raise CategoryError("legs do not form a span at the given apex")

    f, k = gr.mor_of[leg1].base_part, gr.mor_of[leg1].fiber_part
    g, l = gr.mor_of[leg2].base_part, gr.mor_of[leg2].fiber_part
    base = M.base
    y, z = base.tgt[f], base.tgt[g]
    _, b = gr.obj_of[total.tgt[leg1]]
    _, c = gr.obj_of[total.tgt[leg2]]

    base_wp = weak_pushout(base, Span(f, g))
    if base_wp is None:
        raise CategoryError("base span has no weak pushout inside the truncation")
    h, j = base_wp.square.right, base_wp.square.bottom
    w = base_wp.apex

    push_f, push_g = witness.pushforwards[f], witness.pushforwards[g]
    push_h, push_j = witness.pushforwards[h], witness.pushforwards[j]
    fib_y, fib_z, fib_w = M.fiber_at(y), M.fiber_at(z), M.fiber_at(w)

    kbar = push_f.mor(k)  # f_!(a) → f_!(f*(b)) = b
    if fib_y.tgt[kbar] != b:
        raise WitnessInvalid(("straightened leg misses its target", f))
    lbar = push_g.mor(l)
    if fib_z.tgt[lbar] != c:
        raise WitnessInvalid(("straightened leg misses its target", g))
    if push_h.ob(fib_y.src[kbar]) != push_j.ob(fib_z.src[lbar]):
        raise WitnessInvalid(("pushforwards disagree on the span apex", (h, j)))

    fiber_wp = weak_pushout(fib_w, Span(push_h.mor(kbar), push_j.mor(lbar)))
    if fiber_wp is None:
        raise CategoryError("fiber span has no weak pushout inside the truncation")
    mbar, nbar = fiber_wp.square.right, fiber_wp.square.bottom
    d = fiber_wp.apex

    Mh, Mj = M.arrow_at(h), M.arrow_at(j)
    Ky, Kz = fib_y.coding, fib_z.coding  # compose on the fibers' cells
    m = Ky.ids[Ky.cells[Ky.cell(Ky.code[witness.units[h][b]], Ky.code[Mh.mor(mbar)])]]
    n = Kz.ids[Kz.cells[Kz.cell(Kz.code[witness.units[j][c]], Kz.code[Mj.mor(nbar)])]]
    return Square(leg1, leg2, gr.mor_id[(h, m, d)], gr.mor_id[(j, n, d)])


@dataclass(frozen=True)
class TheoremVerdict:
    hypotheses: HypothesesReport
    conclusion_checked: bool
    total_fi_type: FiTypeReport
    proj_preserves_pullbacks: Check
    proj_preserves_weak_pushouts: Check
    alarm: bool

    @property
    def confirmed(self) -> bool:
        return self.conclusion_checked and not self.alarm


def verify_main_theorem(
    M: IndexedCat, witness: WeakReversibilityWitness = None, gr: GrothResult = None, **kw
) -> TheoremVerdict:
    """Hypotheses first; when they hold, audit the conclusion directly.

    Hypotheses are sufficient, not necessary: a negative hypothesis verdict
    predicts nothing, and the direct audit is skipped then.  A positive
    hypothesis verdict with a failing direct audit raises the alarm flag.
    """
    gr = gr if gr is not None else grothendieck(M)
    hyp = check_hypotheses(M, witness, gr=gr, **kw)
    total_report = check_fi_type(gr.total)
    pb = preserves_pullbacks(gr.proj)
    wp = preserves_weak_pushouts(gr.proj)
    alarm = hyp.holds and not (total_report.holds and pb.holds and wp.holds)
    return TheoremVerdict(hyp, hyp.holds, total_report, pb, wp, alarm)


@dataclass(frozen=True)
class GrayReport:
    fibers_have_pullbacks: Check
    inclusions_preserve: Check
    total_has_pullbacks: Check
    proj_preserves: Check

    @property
    def left_side(self) -> bool:
        return bool(self.fibers_have_pullbacks and self.inclusions_preserve)

    @property
    def right_side(self) -> bool:
        return bool(self.total_has_pullbacks and self.proj_preserves)

    @property
    def biconditional_holds(self) -> bool:
        return self.left_side == self.right_side


def check_gray_pullbacks(P: FinFunctor) -> GrayReport:
    """Instance-wise pullback biconditional for a fibration.

    (fibers have pullbacks and the inclusions preserve them) must agree with
    (the total category has pullbacks and P preserves them).
    """
    # One scan that stops at the first fiber lacking a pullback or whose
    # inclusion does not preserve them; a Cospan counterexample is the former.
    first = first_failure(
        P.target.objects,
        lambda x: has_pullbacks(fiber(P, x)) and preserves_pullbacks(fiber_inclusion(P, x)),
    )
    lacks = not first and isinstance(first.counterexample[1], Cospan)
    fibers_have = first if lacks else Check(True)
    inclusions = Check(True) if lacks else first
    total = has_pullbacks(P.source)
    total_has = Check(total.holds, total.counterexample)  # without the count
    return GrayReport(fibers_have, inclusions, total_has, preserves_pullbacks(P))
