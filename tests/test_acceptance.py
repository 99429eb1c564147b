"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings.  Criterion 4's "fails exactly {all_mono, ei}" clause is kept as
a faithful assertion in its own test and fails honestly; see the analysis in
the repository notes (the idempotent monoid provably also fails transitivity
and pullback existence under the module's own definitions, e.g. its
transitivity counterexample is the module example "two maps with trivial
automorphism group").
"""

import json
import math
import time

import pytest

from comparisons import fi_g_comparison
from fibcat import (
    automorphisms,
    check_ei_lemma,
    check_fi_type,
    check_gray_pullbacks,
    check_hypotheses,
    check_increasing_lemma,
    check_locally_finite_product_law,
    check_mono_lemma,
    check_transitivity_lemma,
    choose_cleaving,
    construct_weak_pushout_total,
    grothendieck,
    is_cartesian,
    is_fibration,
    is_mono,
    is_split,
    is_weak_pushout_square,
    pullback,
    validate_group_hom,
    verify_main_theorem,
    weak_pushout,
)
from fibcat.generators import (
    delta_const,
    indexed_gpow,
    chain_poset,
    cospan_poset,
    parse_inj,
)
from fibcat.groups import (
    cyclic_group,
    extension_from_twisted,
    groups_isomorphic,
    inversion_action,
    semidirect,
    trivial_group,
    twisted_from_surjection,
    twisted_indexed_data,
    validate_twisted_action,
)
from fibcat.indexed import IndexedError, validate_indexed
from fibcat.limits import Cospan, all_cospans
from fibcat.functors import validate_functor
from fibcat.theorem import gpow_witness, invertible_arrow_witness


def _report(n, ok, detail=""):
    print("[acceptance %s] %s %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok


def perm_count(n, m):
    return math.factorial(n) // math.factorial(n - m)


def test_acceptance_1_grothendieck_fi_g_agreement():
    t0 = time.monotonic()
    groups = [("trivial", trivial_group()), ("z2", cyclic_group(2)), ("z3", cyclic_group(3))]
    for gname, G in groups:
        for N in range(4):
            M = indexed_gpow(G, N)
            gr = grothendieck(M)
            _, props = fi_g_comparison(G, N, gr)
            assert props.full.holds and props.faithful.holds
            assert props.essentially_surjective.holds and props.equivalence, (gname, N)
            for m in range(N + 1):
                for n in range(m, N + 1):
                    got = len(
                        gr.total.hom(gr.obj_id[(str(m), "*")], gr.obj_id[(str(n), "*")])
                    )
                    assert got == len(G) ** m * perm_count(n, m), (gname, N, m, n)
            if N == 3:
                aut = automorphisms(gr.total, gr.obj_id[("3", "*")])
                assert len(aut) == len(G) ** 3 * 6
                if gname == "z2":
                    assert len(aut) == 48
    elapsed = time.monotonic() - t0
    assert elapsed < 60, elapsed
    _report(1, True, "equivalences + hom counts exact for 3 groups x N<=3 in %.1fs" % elapsed)


def test_acceptance_2_fibration_lemma(groth_corpus):
    assert len(groth_corpus) >= 10
    names = " ".join(name for name, _, _ in groth_corpus)
    for kind in ("delta", "gpow_z2", "blocks", "slice", "twisted"):
        assert kind in names, kind
    for name, M, gr in groth_corpus:
        rep = is_fibration(gr.proj)
        assert rep.holds, name
        for f in M.base.morphisms:
            y = M.base.tgt[f]
            for b in M.fiber_at(y).objects:
                lift = gr.mor_id[(f, M.fiber_at(M.base.src[f]).id_of(M.arrow_at(f).ob(b)), b)]
                assert is_cartesian(gr.proj, lift), (name, f, b)
    _report(2, True, "projection is a fibration + (f, id) lifts cartesian on %d instances" % len(groth_corpus))


def test_acceptance_3_lemma_suite(groth_corpus):
    checked = 0
    for name, M, gr in groth_corpus:
        total = gr.total
        base = M.base
        # isomorphisms are cartesian
        for phi in total.inverses:
            assert is_cartesian(gr.proj, phi), (name, phi)
        # (f, k) iso iff f and k iso
        for phi in total.morphisms:
            tm = gr.mor_of[phi]
            x = base.src[tm.base_part]
            parts_iso = (
                tm.base_part in base.inverses
                and tm.fiber_part in M.fiber_at(x).inverses
            )
            assert (phi in total.inverses) == parts_iso, (name, phi)
        # vertical morphisms with total inverses have vertical inverses
        for phi, inv in total.inverses.items():
            if base.is_identity(gr.mor_of[phi].base_part):
                assert base.is_identity(gr.mor_of[inv].base_part), (name, phi)
        cleaving = choose_cleaving(gr.proj)
        # cartesian lifts of invertible base morphisms are mono
        for (f, b), lift in cleaving.entries.items():
            if f in base.inverses:
                assert is_mono(total, lift), (name, f, b)
        # split cleaving law, exactly, for strict inputs
        if M.strict:
            for (f, g), gf in base.table.items():
                for c in (t for t in total.objects if gr.proj.ob(t) == base.tgt[g]):
                    lift_g = cleaving.lift(g, c)
                    gc = total.src[lift_g]
                    assert total.comp(cleaving.lift(f, gc), lift_g) == cleaving.lift(gf, c)
        checked += 1
    _report(3, True, "iso/mono/verticality/split laws exhaustive on %d instances" % checked)


def test_acceptance_4a_fi_type_audits(fi4, gr_zpow2_3, idempotent_monoid):
    t0 = time.monotonic()
    assert check_fi_type(fi4).holds
    _, gr = gr_zpow2_3
    assert check_fi_type(gr.total).holds
    rep = check_fi_type(idempotent_monoid)
    assert not rep.all_mono.holds and rep.all_mono.counterexample[0] == "e"
    assert not rep.ei.holds and rep.ei.counterexample == "e"
    # FI pullback apexes equal image-intersection sizes (combinatorial oracle)
    n_checked = 0
    for cospan in all_cospans(fi4):
        pb = pullback(fi4, cospan)
        assert pb is not None
        _, _, a = parse_inj(cospan.f1)
        _, _, b = parse_inj(cospan.f2)
        assert int(pb.apex) == len(set(a) & set(b)), cospan
        n_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120, elapsed
    _report(
        "4a",
        True,
        "audits pass; %d pullback apexes match the intersection oracle in %.1fs"
        % (n_checked, elapsed),
    )


def test_acceptance_4b_idempotent_exact_failure_set_spec_defect(idempotent_monoid):
    """Faithful rendering of the literal criterion; fails by design.

    The criterion asserts the failing set is exactly {all_mono, ei}, but the
    trivial automorphism group makes transitivity fail (counterexample
    (*, *, 1, e)) and the cospan (e, e) has no pullback.  Kept red on
    purpose; see the repository notes for the full analysis.
    """
    rep = check_fi_type(idempotent_monoid)
    failing = {
        name
        for name in (
            "locally_finite",
            "all_mono",
            "ei",
            "transitive",
            "increasing",
            "has_pullbacks",
            "has_weak_pushouts",
        )
        if not getattr(rep, name).holds
    }
    _report("4b", failing == {"all_mono", "ei"}, "failing set is %s" % sorted(failing))


def test_acceptance_5_sectionwise_biconditionals(groth_corpus):
    for name, M, gr in groth_corpus:
        assert check_locally_finite_product_law(M, gr).holds, name
        assert check_mono_lemma(M, gr).agrees, name
        assert check_ei_lemma(M, gr).agrees, name
        assert check_increasing_lemma(M, gr).agrees, name
        assert check_transitivity_lemma(M, gr).agrees, name
        rep = check_gray_pullbacks(gr.proj)
        assert rep.biconditional_holds, name
    # mutation: deleting the fiber pullback apex flips both Gray sides
    mutated = grothendieck(delta_const(chain_poset(2), cospan_poset()))
    rep = check_gray_pullbacks(mutated.proj)
    assert not rep.left_side and not rep.right_side and rep.biconditional_holds
    _report(5, True, "Eq-sum, mono/EI/increasing/transitive, Gray + mutation: zero discrepancies")


def test_acceptance_6_main_theorem_soundness(witnessed_corpus, gr_zpow2_3, z2):
    t0 = time.monotonic()
    alarms = []
    for name, M, gr, witness in witnessed_corpus:
        verdict = verify_main_theorem(M, witness, gr=gr)
        assert verdict.hypotheses.holds, name
        if verdict.alarm:
            alarms.append(name)
    assert not alarms, alarms

    M, gr = gr_zpow2_3
    witness = gpow_witness(z2, M)
    hyp = check_hypotheses(M, witness, gr=gr)
    assert hyp.holds
    base = M.base
    spans_checked = 0
    for f in base.morphisms:
        for g in base.morphisms:
            if base.src[f] != base.src[g]:
                continue
            m1, n1, _ = parse_inj(f)
            _, n2, _ = parse_inj(g)
            if n1 + n2 - m1 > 3:
                continue  # pushout apex would exceed the truncation
            x = base.src[f]
            leg1 = gr.mor_id[(f, M.fiber_at(x).id_of("*"), "*")]
            leg2 = gr.mor_id[(g, M.fiber_at(x).id_of("*"), "*")]
            sq = construct_weak_pushout_total(
                M, witness, gr.obj_id[(x, "*")], leg1, leg2, gr=gr, hypotheses=hyp
            )
            assert is_weak_pushout_square(gr.total, sq).holds, (f, g)
            spans_checked += 1
            if spans_checked >= 40:
                break
        if spans_checked >= 40:
            break
    assert spans_checked >= 20, spans_checked
    elapsed = time.monotonic() - t0
    assert elapsed < 600, elapsed
    _report(
        6,
        True,
        "%d witnessed instances, zero alarms; %d constructed squares pass brute force in %.1fs"
        % (len(witnessed_corpus), spans_checked, elapsed),
    )


def test_acceptance_7_group_extensions(z2, z3, z4, z4_twisted, corpus, s3):
    # Z/4 -> Z/2 round trip
    assert z4_twisted.phi[("1", "1")] == "2"
    ext = extension_from_twisted(z4_twisted)
    assert max(ext.total.order_of(e) for e in ext.total.elements) == 4
    assert groups_isomorphic(ext.total, z4)
    assert not is_split(ext.proj)

    # inversion-action semidirect product
    sd = semidirect(z2, z3, inversion_action(z2, z3))
    assert len(sd) == 6 and not sd.is_abelian()
    proj = validate_group_hom(sd, z2, {e: e[1] for e in sd.elements})
    assert is_split(proj)

    # twisted validator verdict == indexed coherence verdict, valid and not
    cases = [z4_twisted]
    from fibcat.groups import TwistedAction, strict_twisted, trivial_action

    cases.append(strict_twisted(z2, z3, inversion_action(z2, z3)))
    cases.append(strict_twisted(z2, z2, trivial_action(z2, z2)))
    bad_phi = dict(z4_twisted.phi)
    bad_phi[("0", "1")] = "2"
    cases.append(TwistedAction(z4_twisted.acting, z4_twisted.acted, z4_twisted.act, bad_phi))
    z8 = cyclic_group(8)
    p8 = validate_group_hom(z8, cyclic_group(4), {str(i): str(i % 4) for i in range(8)})
    t8 = twisted_from_surjection(p8, {str(i): str(i) for i in range(4)})
    cases.append(t8)
    broken8 = dict(t8.phi)
    broken8[("1", "1")] = "4" if t8.phi[("1", "1")] == "0" else "0"
    cases.append(TwistedAction(t8.acting, t8.acted, t8.act, broken8))
    for T in cases:
        verdict = validate_twisted_action(T).holds
        base, fiber, arrows, compositors = twisted_indexed_data(T)
        try:
            arrow_functors = {
                g: validate_functor(fiber, fiber, ob, mor)
                for g, (ob, mor) in arrows.items()
            }
            validate_indexed(base, {"*": fiber}, arrow_functors, compositors)
            indexed_ok = True
        except IndexedError:
            indexed_ok = False
        assert verdict == indexed_ok
    _report(7, True, "round trips exact; validator verdicts match indexed coherence on %d cases" % len(cases))


def test_acceptance_8_determinism(tmp_path, capsys):
    from fibcat.cli import main

    d = str(tmp_path)
    gen_cmds = [
        ["gen", "fi", "--max", "2", "-o", d + "/fi2.json"],
        ["gen", "fi", "--max", "3", "-o", d + "/fi3.json"],
        ["gen", "fig", "--group", "z2", "--max", "2", "-o", d + "/fig_z2.json"],
        ["gen", "fig", "--group", "z3", "--max", "1", "-o", d + "/fig_z3.json"],
        ["gen", "direct", "--group", "z2", "--max", "2", "-o", d + "/direct_z2.json"],
        ["gen", "blocks", "--max", "2", "--inner", "1", "-o", d + "/blocks.json"],
    ]
    for cmd in gen_cmds:
        first = main(cmd)
        capsys.readouterr()
        assert first == 0
        body1 = open(cmd[-1]).read()
        assert main(cmd) == 0
        capsys.readouterr()
        assert open(cmd[-1]).read() == body1

    report_cmds = [
        ["--json", "validate", d + "/fi2.json"],
        ["--json", "validate", d + "/fi3.json"],
        ["--json", "validate", d + "/direct_z2.json"],
        ["--json", "fitype", d + "/fi2.json"],
        ["--json", "fitype", d + "/fi3.json"],
        ["--json", "fitype", d + "/direct_z2.json"],
        ["--json", "groth", d + "/fig_z2.json", "-o", d + "/total.json"],
        ["--json", "groth", d + "/fig_z3.json", "-o", d + "/total3.json"],
        ["--json", "groth", d + "/blocks.json", "-o", d + "/totalb.json"],
    ]
    n_reports = 0
    for cmd in report_cmds:
        outs = []
        bodies = []
        for _ in range(2):
            code = main(cmd)
            outs.append(capsys.readouterr().out)
            assert code == 0
            if "-o" in cmd:
                bodies.append(open(cmd[cmd.index("-o") + 1]).read())
        assert outs[0] == outs[1], cmd
        if bodies:
            assert bodies[0] == bodies[1], cmd
        json.loads(outs[0])  # well-formed
        n_reports += 1
    _report(8, True, "%d generated artifacts and --json reports byte-identical across runs" % n_reports)
