import hashlib
import math

from fibcat import (
    check_ei_lemma,
    check_fi_type,
    check_increasing_lemma,
    check_locally_finite_product_law,
    check_mono_lemma,
    check_transitivity_lemma,
    endomorphism_invertibility,
    grothendieck,
    transitivity_ell_condition,
    validate_category,
)
from fibcat.generators import (
    block_perm_indexed,
    chain_poset,
    delta_const,
    fi_truncated,
    injections,
    product_category,
)
from fibcat.groups import cyclic_group, group_as_category, symmetric_group
from fibcat.ioformats import stable_dumps
from test_limits import mediator_failure_category


def test_fi4_audit(fi4):
    rep = check_fi_type(fi4)
    assert rep.holds
    assert rep.locally_finite.info["max_hom_size"] == 24
    assert rep.has_weak_pushouts.info["vacuous_spans"] > 0


def test_total_category_audit(gr_zpow2_3):
    _, gr = gr_zpow2_3
    rep = check_fi_type(gr.total)
    assert rep.holds


def test_idempotent_failure_profile(idempotent_monoid):
    # fails all_mono and ei with witness e; the trivial automorphism group
    # and the pullback-free cospan (e, e) also fail, with those witnesses
    rep = check_fi_type(idempotent_monoid)
    assert not rep.all_mono.holds and rep.all_mono.counterexample[0] == "e"
    assert not rep.ei.holds and rep.ei.counterexample == "e"
    assert not rep.transitive.holds
    assert rep.transitive.counterexample == ("*", "*", "1", "e")
    assert not rep.has_pullbacks.holds
    assert rep.has_pullbacks.counterexample.f1 == "e"
    assert rep.locally_finite.holds and rep.increasing.holds
    assert rep.has_weak_pushouts.holds
    assert rep.has_weak_pushouts.info["vacuous_spans"] == 1


def test_groupoids_are_fi_type(s3):
    rep = check_fi_type(group_as_category(s3))
    assert rep.holds


def test_report_dict_shape(fi2):
    d = check_fi_type(fi2).as_dict()
    assert set(d) == {
        "locally_finite",
        "all_mono",
        "ei",
        "transitive",
        "increasing",
        "has_pullbacks",
        "has_weak_pushouts",
        "holds",
    }


def test_product_law_constant_case(fi2):
    M = delta_const(fi2, fi2)
    gr = grothendieck(M)
    assert check_locally_finite_product_law(M, gr).holds
    # |hom| factorises as |X(x,y)| * |Y(a,b)| in the constant case
    for x in fi2.objects:
        for y in fi2.objects:
            for a in fi2.objects:
                for b in fi2.objects:
                    got = len(gr.total.hom(gr.obj_id[(x, a)], gr.obj_id[(y, b)]))
                    assert got == len(fi2.hom(x, y)) * len(fi2.hom(a, b))


def test_product_law_gpow(gr_zpow2_3):
    M, gr = gr_zpow2_3
    assert check_locally_finite_product_law(M, gr).holds
    for m in range(4):
        for n in range(m, 4):
            got = len(gr.total.hom(gr.obj_id[(str(m), "*")], gr.obj_id[(str(n), "*")]))
            assert got == 2 ** m * math.factorial(n) // math.factorial(n - m)


def test_product_law_blocks():
    M = block_perm_indexed(2, 1)
    gr = grothendieck(M)
    assert check_locally_finite_product_law(M, gr).holds
    # oracle: sum over injections f of products of inner hom sizes
    inner = fi_truncated(1)
    for (n, sizes), (p, qs) in [
        ((1, ("1",)), (2, ("1", "1"))),
        ((2, ("1", "0")), (2, ("0", "1"))),
    ]:
        src = gr.obj_id[(str(n), "(%s)" % ",".join(sizes))]
        tgt = gr.obj_id[(str(p), "(%s)" % ",".join(qs))]
        expected = sum(
            math.prod(len(inner.hom(sizes[i], qs[f[i]])) for i in range(n))
            for f in injections(n, p)
        )
        assert len(gr.total.hom(src, tgt)) == expected


def test_lemma_suite_on_corpus(groth_corpus):
    for name, M, gr in groth_corpus:
        mono = check_mono_lemma(M, gr)
        assert mono.agrees, name
        ei = check_ei_lemma(M, gr)
        assert ei.agrees, name
        inc = check_increasing_lemma(M, gr)
        assert inc.agrees, name
        trans = check_transitivity_lemma(M, gr)
        assert trans.agrees, name


def test_lemma_suite_negative_instance(idempotent_monoid):
    from fibcat import identity_functor, validate_indexed
    from fibcat.generators import terminal_category

    T = terminal_category()
    M = validate_indexed(
        T, {"*": idempotent_monoid}, {"id": identity_functor(idempotent_monoid)}
    )
    gr = grothendieck(M)
    mono = check_mono_lemma(M, gr)
    assert not mono.total_side.holds and not mono.fiber_side.holds and mono.agrees
    ei = check_ei_lemma(M, gr)
    assert not ei.total_side.holds and not ei.fiber_side.holds and ei.agrees


def test_vacuous_endomorphism_condition(swap_indexed):
    rep = endomorphism_invertibility(swap_indexed)
    assert rep.holds and rep.info["vacuous_pairs"] == 2


def test_ell_condition_holds_on_a_group_power(gr_zpow2_3):
    M, _ = gr_zpow2_3
    assert transitivity_ell_condition(M).holds


def test_ell_condition_failure_detected():
    # base: two parallel arrows with a swap automorphism (transitive);
    # fiber over y has two objects that the swap-arrow action cannot fix,
    # killing the factorisation condition for mixed pairs.
    from fibcat import identity_functor, validate_functor, validate_indexed
    from fibcat.generators import discrete_category

    base = validate_category(
        ["x", "y"],
        [
            ("ix", "x", "x"),
            ("iy", "y", "y"),
            ("s", "y", "y"),
            ("f1", "x", "y"),
            ("f2", "x", "y"),
        ],
        {"x": "ix", "y": "iy"},
        [("s", "s", "iy"), ("f1", "s", "f2"), ("f2", "s", "f1")],
    )
    fib_y = discrete_category(["a", "b"])
    fib_x = discrete_category(["c"])
    swap = validate_functor(fib_y, fib_y, {"a": "b", "b": "a"}, {"id_a": "id_b", "id_b": "id_a"})
    collapse = validate_functor(fib_y, fib_x, {"a": "c", "b": "c"}, {"id_a": "id_c", "id_b": "id_c"})
    M = validate_indexed(
        base,
        {"x": fib_x, "y": fib_y},
        {
            "ix": identity_functor(fib_x),
            "iy": identity_functor(fib_y),
            "s": swap,
            "f1": collapse,
            "f2": collapse,
        },
    )
    gr = grothendieck(M)
    rep = check_transitivity_lemma(M, gr)
    assert not rep.total_side.holds  # (f1, id) and (f2, id) share no automorphism
    assert not rep.fiber_side.holds
    assert rep.agrees
    assert not transitivity_ell_condition(M).holds


# sha256 of ``stable_dumps(check_fi_type(C).as_dict())``, recorded while every
# span still scanned its own commuting squares and every cospan ran its own
# pullback search: verdicts, counterexamples and the ``cospans`` and
# ``vacuous_spans`` counts must not move.
AUDIT_BYTES = {
    "fi_truncated(4)": "b462d3efbeadd64fa7a2cc2280d8dd286bebee7169ef18dab20548303f1c1f29",
    "grothendieck(indexed_gpow(Z2, 3)).total": "8aeafddef8c1ec8950c49357ad2cc0a201dca268273cd0e55ae919819680d79e",
    "grothendieck(block_perm_indexed(3, 1)).total": "51a936914a6796997a9aa399cb63d92ef8c3b9617888e11a1c01833b15df76d9",
    "product_category(chain6, chain6)": "10d1150977d031b6170c735397b75fa25ab3e9dee02a7d2dddc2c7157601154a",
    "idempotent_monoid": "1c19d0e8432773c9fafaa0ba2a29cb16bccecdd2286d542756d2e330e646bd7e",
    "parallel_pair": "8e7f4818e5c1aeca20d3f2637d22b584ea91978a0c02fe76d1845cadc4e1a804",
    "mediator_failure_category()": "8fcf94646e84c08a476c10fb38ebf68c8da0d5380d426cab96728b1365dcc538",
}


def test_audit_bytes_are_pinned(fi4, gr_zpow2_3, idempotent_monoid, parallel_pair):
    chain6 = chain_poset(6)
    audited = {
        "fi_truncated(4)": fi4,
        "grothendieck(indexed_gpow(Z2, 3)).total": gr_zpow2_3[1].total,
        "grothendieck(block_perm_indexed(3, 1)).total": grothendieck(block_perm_indexed(3, 1)).total,
        "product_category(chain6, chain6)": product_category(chain6, chain6),
        "idempotent_monoid": idempotent_monoid,
        "parallel_pair": parallel_pair,
        "mediator_failure_category()": mediator_failure_category(),
    }
    digests = {
        name: hashlib.sha256(stable_dumps(check_fi_type(C).as_dict()).encode()).hexdigest()
        for name, C in audited.items()
    }
    assert digests == AUDIT_BYTES
