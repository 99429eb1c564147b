"""The seven-condition FI-type audit, and the fiberwise transfer checks.

Conditions audited for a finite category C:

  1. locally finite        (always true here; max hom-set size is reported)
  2. every morphism mono
  3. EI: every endomorphism invertible
  4. Aut(y) transitive on hom(x, y)
  5. finitely many iso classes below each object (sizes reported)
  6. every cospan has a pullback
  7. every span that admits a pullback-square completion has a weak pushout

Conditions 6 and 7 are ``limits.has_pullbacks`` and ``limits.has_weak_pushouts``.
Condition 7 is audited within the truncation: a span whose would-be apex
lies beyond the object bound admits no pullback-square completion at all and
is counted as vacuous rather than as a failure.  The report keeps the count
so truncation studies can see what was skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Check,
    FinCat,
    below_set,
    first_failure,
    is_ei,
    is_transitive,
    iso_classes,
    mono_witness,
)
from .groth import GrothResult, grothendieck
from .indexed import IndexedCat
from .limits import (  # noqa: F401  (pullback is re-exported)
    has_pullbacks,
    has_weak_pushouts,
    pullback,
)

TRUNCATION_CAVEAT = (
    "pullback/weak-pushout audits run inside the truncation; "
    "apex objects near the object bound may be missing"
)


# The seven conditions, in report order; each names a FiTypeReport field.
CONDITIONS = (
    "locally_finite",
    "all_mono",
    "ei",
    "transitive",
    "increasing",
    "has_pullbacks",
    "has_weak_pushouts",
)


@dataclass(frozen=True)
class FiTypeReport:
    locally_finite: Check
    all_mono: Check
    ei: Check
    transitive: Check
    increasing: Check
    has_pullbacks: Check
    has_weak_pushouts: Check

    @property
    def holds(self) -> bool:
        return all(getattr(self, name).holds for name in CONDITIONS)

    def as_dict(self) -> dict:
        out = {}
        for name in CONDITIONS:
            c = getattr(self, name)
            out[name] = {
                "holds": c.holds,
                "counterexample": repr(c.counterexample) if c.counterexample is not None else None,
                "info": {k: c.info[k] for k in sorted(c.info)},
            }
        out["holds"] = self.holds
        return out


def _all_mono(C: FinCat) -> Check:
    """Every morphism is mono, read from the category's mono mask; the
    counterexample is (f, mono_witness(f)) for the first f by id that is
    not."""
    coding = C.coding
    bad = np.flatnonzero(~coding.monos)
    if not bad.size:
        return Check(True)
    f = min(coding.ids[k] for k in bad.tolist())
    return Check(False, (f, mono_witness(C, f)))


def check_fi_type(C: FinCat) -> FiTypeReport:
    """Run all seven audits; every verdict is an exhaustive check."""
    max_hom = max((len(v) for v in C.homs.values()), default=0)
    locally_finite = Check(True, info={"max_hom_size": max_hom})

    all_mono = _all_mono(C)
    ei = is_ei(C)
    transitive = is_transitive(C)

    belows = {y: len(below_set(C, y)) for y in C.objects}
    increasing = Check(
        True,
        info={
            "iso_classes": len(iso_classes(C)),
            "max_below": max(belows.values(), default=0),
        },
    )

    return FiTypeReport(
        locally_finite,
        all_mono,
        ei,
        transitive,
        increasing,
        has_pullbacks(C),
        has_weak_pushouts(C),
    )


# ---------------------------------------------------------------------------
# Transfer of each condition along the projection of a Grothendieck
# construction, checked instance-wise against direct audits.
# ---------------------------------------------------------------------------


def _groth(M: IndexedCat, gr):
    return gr if gr is not None else grothendieck(M)


def check_locally_finite_product_law(M: IndexedCat, gr: GrothResult = None) -> Check:
    """Total hom-set sizes decompose as a sum over base morphisms.

    |hom((x,a),(y,b))| must equal the sum over f: x→y of |M(x)(a, M(f)(b))|.
    """
    gr = _groth(M, gr)
    base = M.base
    max_total = 0
    for x in base.objects:
        fib_x = M.fiber_at(x)
        for y in base.objects:
            fib_y = M.fiber_at(y)
            for a in fib_x.objects:
                for b in fib_y.objects:
                    total = len(gr.total.hom(gr.obj_id[(x, a)], gr.obj_id[(y, b)]))
                    expect = sum(
                        len(fib_x.hom(a, M.arrow_at(f).ob(b))) for f in base.hom(x, y)
                    )
                    if total != expect:
                        return Check(False, ((x, a), (y, b), total, expect))
                    max_total = max(max_total, total)
    return Check(True, info={"max_total_hom_size": max_total})


@dataclass(frozen=True)
class TransferReport:
    """Two independently computed sides of a biconditional."""

    total_side: Check
    fiber_side: Check
    agrees: bool
    details: dict


def _transfer(M: IndexedCat, gr, check, base_key: str, condition=Check(True), **details) -> TransferReport:
    """``check`` on the total, against its first failure on a fiber joined
    with the fiber-side ``condition``; ``details`` holds ``check`` on the
    base under ``base_key``, then ``details``."""
    total = check(_groth(M, gr).total)
    fibers = first_failure(M.base.objects, lambda x: check(M.fiber_at(x)))
    fiber_side = Check(fibers.holds and condition.holds, fibers.counterexample or condition.counterexample)
    return TransferReport(total, fiber_side, total.holds == fiber_side.holds, {base_key: check(M.base).holds, **details})


def check_mono_lemma(M: IndexedCat, gr: GrothResult = None) -> TransferReport:
    """All-mono transfers: total all-mono iff every fiber is all-mono."""
    return _transfer(M, gr, _all_mono, "base_all_mono")


def endomorphism_invertibility(M: IndexedCat) -> Check:
    """Every map a → M(f)(a) over a base endomorphism f is invertible.

    Empty hom-sets pass vacuously; the report counts how often that happened.
    """
    vacuous = 0
    for x in M.base.objects:
        fib = M.fiber_at(x)
        for f in M.base.endos(x):
            Mf = M.arrow_at(f)
            for a in fib.objects:
                ks = fib.hom(a, Mf.ob(a))
                if not ks:
                    vacuous += 1
                    continue
                for k in ks:
                    if k not in fib.inverses:
                        return Check(False, (f, a, k))
    return Check(True, info={"vacuous_pairs": vacuous})


def check_ei_lemma(M: IndexedCat, gr: GrothResult = None) -> TransferReport:
    """EI transfers: total EI iff fibers EI and endo-maps are invertible."""
    endo = endomorphism_invertibility(M)
    return _transfer(M, gr, is_ei, "base_ei", endo, vacuous_pairs=endo.info.get("vacuous_pairs", 0))


def check_increasing_lemma(M: IndexedCat, gr: GrothResult = None) -> TransferReport:
    """Below-sets stay finite on both sides and project compatibly.

    Everything here is finite, so the content is the structural agreement:
    the class of any object below (y, b) projects to a class below y.
    """
    gr = _groth(M, gr)
    total_classes = iso_classes(gr.total)
    base_classes = {x: cls for cls in iso_classes(M.base) for x in cls}
    compatible = Check(True)
    max_total_below = 0
    for t in gr.total.objects:
        below = below_set(gr.total, t)
        max_total_below = max(max_total_below, len(below))
        y = gr.obj_of[t][0]
        allowed = {base_classes[x] for x in (c[0] for c in below_set(M.base, y))}
        for cls in below:
            x = gr.obj_of[cls[0]][0]
            if base_classes[x] not in allowed:
                compatible = Check(False, (t, cls))
                break
        if not compatible.holds:
            break
    total_side = Check(True, info={"classes": len(total_classes), "max_below": max_total_below})
    fiber_side = Check(
        True,
        info={
            "max_fiber_below": max(
                (
                    len(below_set(M.fiber_at(x), a))
                    for x in M.base.objects
                    for a in M.fiber_at(x).objects
                ),
                default=0,
            )
        },
    )
    return TransferReport(
        total_side, fiber_side, compatible.holds, {"projection_compatible": compatible.holds}
    )


def transitivity_ell_condition(M: IndexedCat, all_g: bool = False) -> Check:
    """The factorisation condition that makes transitivity transfer.

    For parallel pairs f1, f2: x→y and maps k1: a → M(f1)(b),
    k2: a → M(f2)(b) there must be an endomorphism g of y with f1 = g∘f2 and
    a map l: b → M(g)(b) with

        mu[f2,g](b) ∘ M(f2)(l) ∘ k2 = k1.

    With ``all_g`` every factorisation g must admit such an l; by default one
    witnessing g suffices.  Decided on the cells of the base and of the
    fiber over x, with mu from ``M.coding``: the g of f1, f2 are found
    among the codes of y's endomorphisms, and the maps u = M(f2)(l);mu[f2,
    g](b) of each g once per b; the first failing (k1, k2) is the first in
    the order (b, a, k1, k2).
    """
    base, B, C = M.base, M.base.coding, M.coding
    number = dict(zip(base.objects, range(len(base.objects))))
    for (x, y), fs in sorted(base.homs.items()):
        fib_x, fib_y, K = M.fiber_at(x), M.fiber_at(y), M.fiber_at(x).coding
        endos = base.hom_codes(y, y)
        for f1 in fs:
            M1 = M.arrow_at(f1)
            for f2 in fs:
                M2, c2 = M.arrow_at(f2), B.code[f2]
                gs = endos[B.cells[B.cell(c2, endos)] == B.code[f1]].tolist()
                for n, b in enumerate(fib_y.objects):
                    t1, t2, d = M1.ob(b), M2.ob(b), C.obj0[number[y]] + n
                    us = []  # per g, the codes of the maps u
                    for g in gs:
                        ls = fib_y.hom_codes(b, M.arrow_at(B.ids[g]).ob(b))
                        mu = C.mu[C.mu_at[B.cell(c2, g)] + d] - C.code0[number[x]]
                        us.append(K.cells[K.cell(M2.code_map[ls], mu)])
                    for a in fib_x.objects:
                        k1, k2 = fib_x.hom_codes(a, t1), fib_x.hom_codes(a, t2)
                        hits = np.zeros((len(us), len(k1), len(k2)), bool)
                        for hit, u in zip(hits, us):
                            hit[:] = (K.cells[K.cell(k2[:, None], u)] == k1[:, None, None]).any(-1)
                        ok = hits.all(0) if all_g else hits.any(0)
                        if not ok.all():
                            r, c = divmod(int(np.argmin(ok)), len(k2))
                            return Check(False, (f1, f2, a, b, K.ids[k1[r]], K.ids[k2[c]]))
    return Check(True)


def check_transitivity_lemma(M: IndexedCat, gr: GrothResult = None) -> TransferReport:
    """Transitivity transfers: total transitive iff fibers transitive + ell."""
    return _transfer(M, gr, is_transitive, "base_transitive", transitivity_ell_condition(M))
