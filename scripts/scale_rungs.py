#!/usr/bin/env python3
"""Time the scale rungs of the FI_G family, each in a fresh process.

    python scripts/scale_rungs.py [RUNG ...] [--timeout SECONDS]

With no RUNG, every rung runs, in the order below.  Each rung runs in its
own Python process, so it reuses no cache or memory of an earlier one, and
prints one JSON line: the rung, the wall time of its timed step in seconds
and the process's peak resident set (``ru_maxrss``) in MB, or the timeout
when the process ran past it.  The timed step of a build rung is the whole
build; a write or read rung first makes its input, untimed, and times only
the write or the read, and an audit rung makes its category, untimed, and
times the seven conditions of ``check_fi_type``, while the peak resident
set covers both.  A weak-pushout rung makes its category and runs
``has_pullbacks`` on it, untimed, and times ``has_weak_pushouts`` alone.  A
validation rung builds an indexed category, untimed, and times
``validate_indexed`` on its data alone.  A search rung builds an indexed
category, untimed, and times ``theorem.search_witness`` at its default
budget.  A straightening rung builds the projection of a Grothendieck
total, untimed, and times ``groth.straighten`` with the cleaving it
chooses.  The exit
code is 0 when every rung finished, 1 when one timed out or failed, 2 for
an unknown rung.
"""

import argparse
import json
import resource
import subprocess
import sys
import time

from fibcat.fitype import check_fi_type
from fibcat.generators import (
    arrow_category,
    chain_poset,
    delta_const,
    fi_truncated,
    indexed_gpow,
    product_category,
    slice_indexed,
)
from fibcat.groth import grothendieck, straighten
from fibcat.groups import automorphism_group, category_as_group, cyclic_group, group_as_category, symmetric_group
from fibcat.indexed import validate_indexed
from fibcat.ioformats import category_from_json, category_to_json, stable_dumps
from fibcat.limits import has_pullbacks, has_weak_pushouts
from fibcat.theorem import search_witness


def _fi_z2_4_total():
    return grothendieck(indexed_gpow(cyclic_group(2), 4)).total


def _group_s5():
    """S5 (120 elements) checked from its table, then the group of its
    groupoid and the automorphism group of its one object."""
    C = group_as_category(symmetric_group(5))
    return category_as_group(C), automorphism_group(C, "*")


def _build(make):
    """A rung that times ``make`` from scratch."""
    return lambda: None, lambda _: make()


def _with_pullbacks(make):
    """``make``, then condition 6 on what it made, which condition 7 reads."""

    def made():
        C = make()
        has_pullbacks(C)
        return C

    return made


# rung: (make the input, untimed; the timed step, given that input)
RUNGS = {
    # a sub-second rung, for a smoke test
    "gpow_z2_3": _build(lambda: indexed_gpow(cyclic_group(2), 3)),
    "gpow_z2_5": _build(lambda: indexed_gpow(cyclic_group(2), 5)),
    "gpow_z3_5": _build(lambda: indexed_gpow(cyclic_group(3), 5)),
    # the checks of that build alone: 415 arrows, 50,156 compositors
    "validate_gpow_z3_5": (
        lambda: indexed_gpow(cyclic_group(3), 5),
        lambda M: validate_indexed(M.base, M.fibers, M.arrows, M.compositors, M.unitors),
    ),
    # the FI_Z3 total category for N=4: indexed category and Grothendieck construction
    "fi_z3_4_total": _build(lambda: grothendieck(indexed_gpow(cyclic_group(3), 4)).total),
    # the FI_Z2 total category for N=5: 7,060 morphisms, 25.8M composites
    "fi_z2_5_total": _build(lambda: grothendieck(indexed_gpow(cyclic_group(2), 5)).total),
    # the arrow category of FI_4, FI_4 made untimed: 89 objects, 67,857
    # morphisms, 42.9M composites; isomorphic to the slice total below
    "arrow_fi4": (lambda: fi_truncated(4), arrow_category),
    # the total of the slices of FI_4, made untimed: 89 objects in many small
    # blocks, 67,857 morphisms, 42.9M composites
    "slice_fi4_total": (lambda: slice_indexed(fi_truncated(4)), lambda M: grothendieck(M).total),
    # the slices of FI_4 indexed by chosen pullbacks, FI_4 made untimed: 5
    # fibers, 89 arrows and 2,165 compositors with 133,055 components
    "slice_indexed_fi4": (lambda: fi_truncated(4), slice_indexed),
    # FI_7: 8 objects, 16,072 morphisms, 81.5M composites
    "fi7": _build(lambda: fi_truncated(7)),
    # the symmetric group S5: its 14,400 products checked, then read back
    # from its groupoid twice
    "group_s5": _build(_group_s5),
    # the poset chain10 x chain10: 100 objects, 3,025 morphisms, each alone
    # in its hom-set
    "chain10x10": _build(lambda: product_category(chain_poset(10), chain_poset(10))),
    # the file of the FI_Z2 total category for N=4 (263,137 composites, 36 MB),
    # written from the category, and read back from its text
    "write_fi_z2_4_total": (_fi_z2_4_total, lambda C: stable_dumps(category_to_json(C))),
    "read_fi_z2_4_total": (
        lambda: stable_dumps(category_to_json(_fi_z2_4_total())),
        lambda text: category_from_json(json.loads(text)),
    ),
    # FI-type audits: FI_5 (415 morphisms), the FI_Z2 total category for N=4
    # (729 morphisms, 407,109 cospans) and FI_6 (2,372 morphisms, 3.9M cospans)
    "audit_fi5": (lambda: fi_truncated(5), check_fi_type),
    "audit_fi_z2_4_total": (_fi_z2_4_total, check_fi_type),
    "audit_fi6": (lambda: fi_truncated(6), check_fi_type),
    # the FI_Z3 total category for N=4 (2,969 morphisms)
    "audit_fi_z3_4_total": (lambda: grothendieck(indexed_gpow(cyclic_group(3), 4)).total, check_fi_type),
    # the poset chain10 x chain10: 100 objects, 3,025 morphisms, 148,225
    # cospans, every automorphism group trivial
    "audit_chain10x10": (lambda: product_category(chain_poset(10), chain_poset(10)), check_fi_type),
    # condition 7 alone, on the same categories
    "weak_pushouts_fi_z2_4_total": (_with_pullbacks(_fi_z2_4_total), has_weak_pushouts),
    "weak_pushouts_fi6": (_with_pullbacks(lambda: fi_truncated(6)), has_weak_pushouts),
    # the witness search for h4: FI_Z2 over FI_3, with fibers Z2^0 to Z2^3,
    # and the constant FI_3 over FI_1
    "search_fig_z2_3": (lambda: indexed_gpow(cyclic_group(2), 3), search_witness),
    "search_delta_fi1_fi3": (lambda: delta_const(fi_truncated(1), fi_truncated(3)), search_witness),
    # straightening: the projection of the FI_Z2 total category for N=4
    # (729 morphisms) and of the total of the slices of FI_4 (67,857
    # morphisms), back to indexed categories over FI_4
    "straighten_fig_z2_4": (lambda: grothendieck(indexed_gpow(cyclic_group(2), 4)).proj, straighten),
    "straighten_slice_fi4_total": (lambda: grothendieck(slice_indexed(fi_truncated(4))).proj, straighten),
}


def run_here(name: str) -> dict:
    make, step = RUNGS[name]
    made = make()
    start = time.perf_counter()
    step(made)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rung": name, "wall_s": round(wall, 3), "maxrss_mb": round(peak_kb / 1024, 1)}


def run_fresh(name: str, timeout: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--here", name],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"rung": name, "timeout_s": timeout}
    if done.returncode != 0:
        return {"rung": name, "error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rungs", nargs="*", metavar="RUNG", help="any of: %s" % ", ".join(RUNGS))
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per rung")
    parser.add_argument("--here", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.here:
        print(json.dumps(run_here(args.here)))
        return 0
    unknown = [r for r in args.rungs if r not in RUNGS]
    if unknown:
        print("unknown rung %r; rungs: %s" % (unknown[0], ", ".join(RUNGS)), file=sys.stderr)
        return 2
    ok = True
    for name in args.rungs or RUNGS:
        result = run_fresh(name, args.timeout)
        ok = ok and "wall_s" in result
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
