#!/usr/bin/env python3
"""Run the full corpus audit and print one verdict row per instance.

For every corpus indexed category: the seven-condition audit of the total
category, the fibration check, the transfer-lemma agreements, and (when a
weak-reversibility witness exists) the main-theorem soundness run.
"""

import time

from fibcat import (
    check_ei_lemma,
    check_fi_type,
    check_gray_pullbacks,
    check_increasing_lemma,
    check_locally_finite_product_law,
    check_mono_lemma,
    check_transitivity_lemma,
    grothendieck,
    is_fibration,
    verify_main_theorem,
)
from fibcat.generators import (
    block_perm_indexed,
    chain_poset,
    delta_const,
    fi_truncated,
    indexed_gpow,
    slice_indexed,
    square_poset,
    terminal_category,
)
from fibcat.groups import (
    cyclic_group,
    inversion_action,
    strict_twisted,
    trivial_group,
    twisted_from_surjection,
    twisted_to_indexed,
    validate_group_hom,
)
from fibcat.theorem import gpow_witness, invertible_arrow_witness


def corpus():
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    fi2 = fi_truncated(2)
    p = validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})
    twisted = twisted_from_surjection(p, {"0": "0", "1": "1"})
    rows = [
        ("delta_fi2_fi2", delta_const(fi2, fi2), invertible_arrow_witness),
        ("delta_chain3_square", delta_const(chain_poset(3), square_poset()), invertible_arrow_witness),
        ("delta_fi2_terminal", delta_const(fi2, terminal_category()), invertible_arrow_witness),
        ("gpow_trivial_3", indexed_gpow(trivial_group(), 3), lambda M: gpow_witness(trivial_group(), M)),
        ("gpow_z2_3", indexed_gpow(z2, 3), lambda M: gpow_witness(z2, M)),
        ("gpow_z3_2", indexed_gpow(z3, 2), lambda M: gpow_witness(z3, M)),
        ("blocks_2_1", block_perm_indexed(2, 1), None),
        ("slice_square_poset", slice_indexed(square_poset()), None),
        ("slice_fi2", slice_indexed(fi2), None),
        ("twisted_z4_over_z2", twisted_to_indexed(twisted), invertible_arrow_witness),
        (
            "semidirect_z2_on_z3",
            twisted_to_indexed(strict_twisted(z2, z3, inversion_action(z2, z3))),
            invertible_arrow_witness,
        ),
    ]
    return rows


def main():
    header = "%-22s %5s %5s %8s %8s %8s %8s %8s" % (
        "instance", "obj", "mor", "fibr", "fi-type", "lemmas", "gray", "theorem"
    )
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for name, M, make_witness in corpus():
        gr = grothendieck(M)
        fib = is_fibration(gr.proj).holds
        audit = check_fi_type(gr.total).holds
        lemmas = all(
            (
                check_locally_finite_product_law(M, gr).holds,
                check_mono_lemma(M, gr).agrees,
                check_ei_lemma(M, gr).agrees,
                check_increasing_lemma(M, gr).agrees,
                check_transitivity_lemma(M, gr).agrees,
            )
        )
        gray = check_gray_pullbacks(gr.proj).biconditional_holds
        if make_witness is None:
            theorem = "no-wtns"
        else:
            verdict = verify_main_theorem(M, make_witness(M), gr=gr)
            theorem = "ALARM" if verdict.alarm else ("ok" if verdict.confirmed else "hyp-fail")
        print(
            "%-22s %5d %5d %8s %8s %8s %8s %8s"
            % (
                name,
                len(gr.total.objects),
                len(gr.total.morphisms),
                "ok" if fib else "FAIL",
                "ok" if audit else "FAIL",
                "ok" if lemmas else "FAIL",
                "ok" if gray else "FAIL",
                theorem,
            )
        )
    print("total %.1fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
