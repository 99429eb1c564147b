"""The three workloads: their inputs, their jobs and their verdict oracle.

Why these workloads (see README.md for the layer map):

* ``audit`` -- whole-category universal-property audits.  About 90% of a
  pass is pullback and weak-pushout search in ``limits``.  FI_4 and the FI_Z2
  total have large automorphism groups, the chain6 x chain6 poset has only
  trivial ones, so orbit reduction meets one instance it helps and one where
  it can only cost.
* ``build`` -- generators, ``validate_category`` and ``grothendieck`` with no
  JSON and no audits, including the 10^8-triple FI_Z2 N=4 total next to the
  arrow category of FI_3 with many small hom blocks.  Nothing runs in
  ``limits``, so it is the no-change workload for audit work.  It reads no
  JSON, so its seed only orders the jobs.
* ``cli`` -- in-process ``fibcat.cli.main`` calls: JSON writes and 36 MB
  reads, report assembly, the cartesian/cleaving path, theorem hypotheses,
  witness search and the group commands, which the other two barely touch.

Every job returns a raw result; ``outcome`` turns it into the checked form
outside the timed region.  At seed 0 the inputs use canonical ids and the
exact form (report bytes, stdout digests) is checked.  Any other seed
relabels every JSON input (see ``relabel``), so only the relabelling-invariant
form is checked: ``holds`` flags, counts, exit codes and whether a
counterexample is present.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import numpy as np

import relabel

# Jobs call fibcat through module attributes, so a traced pass sees wrappers.
from fibcat import cli, fitype, groth, groups, ioformats, theorem
from fibcat import generators as gen

WORKLOADS = ("audit", "build", "cli")

# The audit instances in job order, and how each payload is loaded.
AUDIT_INSTANCES = [
    ("fi4", "category"),
    ("fi_z2_3", "indexed"),
    ("blocks_3_1", "indexed"),
    ("chain6x6", "category"),
]

BUILD_JOBS = [
    ("fi5", lambda: gen.fi_truncated(5)),
    ("fi_z2_4_direct", lambda: gen.fi_g_direct(groups.cyclic_group(2), 4)),
    ("groth_z2_4", lambda: groth.grothendieck(gen.indexed_gpow(groups.cyclic_group(2), 4)).total),
    ("groth_z3_3", lambda: groth.grothendieck(gen.indexed_gpow(groups.cyclic_group(3), 3)).total),
    ("arrow_fi3", lambda: gen.arrow_category(gen.fi_truncated(3))),
]

CLI_JOBS = [
    ("gen_fi5", ["gen", "fi", "--max", "5", "-o", "fi5.json"]),
    ("validate_fi5", ["validate", "fi5.json"]),
    ("gen_fig_z2_4", ["gen", "fig", "--group", "z2", "--max", "4", "-o", "fig_z2_4.json"]),
    ("groth_z2_4", ["groth", "fig_z2_4.json", "-o", "total_z2_4.json"]),
    ("fibration_z2_4", ["fibration", "proj_z2_4.json"]),
    ("cleaving_z2_4", ["cleaving", "proj_z2_4.json"]),
    ("gen_fig_z3_3", ["gen", "fig", "--group", "z3", "--max", "3", "-o", "fig_z3_3.json"]),
    ("groth_z3_3", ["groth", "fig_z3_3.json", "-o", "total_z3_3.json"]),
    ("fitype_fi4", ["fitype", "fi4.json"]),
    ("gen_delta", ["gen", "delta", "--x", "fi3.json", "--y", "fi2.json", "-o", "delta.json"]),
    ("theorem_delta_search", ["theorem", "delta.json", "--search"]),
    ("gen_slice_fi3", ["gen", "slice", "--base", "fi3.json", "-o", "slice_fi3.json"]),
    ("groth_slice_fi3", ["groth", "slice_fi3.json"]),
    ("gen_blocks_3_1", ["gen", "blocks", "--max", "3", "--inner", "1", "-o", "blocks_3_1.json"]),
    ("theorem_blocks_3_1", ["theorem", "blocks_3_1.json"]),
    ("group_split", ["group", "split", "surj.json"]),
    ("group_twist", ["group", "twist", "surj.json"]),
    ("group_ext", ["group", "ext", "twisted.json"]),
]

JOB_NAMES = {
    "audit": [name for name, _ in AUDIT_INSTANCES],
    "build": [name for name, _ in BUILD_JOBS],
    "cli": [name for name, _ in CLI_JOBS],
}

# Report fields whose values are dicts keyed by ids; a relabelling keeps
# only their size.
_ID_KEYED = frozenset({"entries", "act", "phi", "section", "total_group"})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant(value, key=None):
    """The part of a JSON report that a relabelling of ids cannot change."""
    if key in _ID_KEYED and isinstance(value, dict):
        return len(value)
    if isinstance(value, dict):
        return {k: invariant(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return len(value)
    if isinstance(value, str):
        return "<str>"
    return value


def triples(C) -> int:
    """Composable triples: sum of |hom(a,b)|*|hom(b,c)|*|hom(c,d)|."""
    idx = {x: i for i, x in enumerate(C.objects)}
    H = np.zeros((len(idx), len(idx)), dtype=np.int64)
    for (x, y), fs in C.homs.items():
        H[idx[x], idx[y]] = len(fs)
    return int((H @ H @ H).sum())


# ---------------------------------------------------------------------------
# Set-up: the JSON inputs each workload reads, written into ``root``.
# ---------------------------------------------------------------------------


def _surjection_z4_z2() -> dict:
    return {
        "total": ioformats.group_to_json(groups.cyclic_group(4)),
        "target": ioformats.group_to_json(groups.cyclic_group(2)),
        "proj": {"0": "0", "1": "1", "2": "0", "3": "1"},
        "section": {"0": "0", "1": "1"},
    }


def _twisted_from(surj: dict) -> dict:
    proj = groups.validate_group_hom(
        ioformats.group_from_json(surj["total"]),
        ioformats.group_from_json(surj["target"]),
        surj["proj"],
    )
    T = groups.twisted_from_surjection(proj, surj["section"])
    return {
        "acting": ioformats.group_to_json(T.acting),
        "acted": ioformats.group_to_json(T.acted),
        "act": {g: dict(sorted(m.items())) for g, m in sorted(T.act.items())},
        "phi": {"%s|%s" % k: v for k, v in sorted(T.phi.items())},
    }


def _inputs(workload: str) -> list:
    """(file name, relabel function, canonical payload) for every input."""
    to_json = ioformats.category_to_json
    if workload == "audit":
        chain6 = gen.chain_poset(6)
        payloads = {
            "fi4": to_json(gen.fi_truncated(4)),
            "fi_z2_3": ioformats.indexed_to_json(gen.indexed_gpow(groups.cyclic_group(2), 3)),
            "blocks_3_1": ioformats.indexed_to_json(gen.block_perm_indexed(3, 1)),
            "chain6x6": to_json(gen.product_category(chain6, chain6)),
        }
        return [
            (name + ".json", getattr(relabel, kind), payloads[name])
            for name, kind in AUDIT_INSTANCES
        ]
    if workload == "cli":
        surj = _surjection_z4_z2()
        proj = groth.grothendieck(gen.indexed_gpow(groups.cyclic_group(2), 4)).proj
        return [
            ("proj_z2_4.json", relabel.functor, ioformats.functor_to_json(proj)),
            ("fi4.json", relabel.category, to_json(gen.fi_truncated(4))),
            ("fi3.json", relabel.category, to_json(gen.fi_truncated(3))),
            ("fi2.json", relabel.category, to_json(gen.fi_truncated(2))),
            ("surj.json", relabel.surjection, surj),
            ("twisted.json", relabel.twisted, _twisted_from(surj)),
        ]
    return []


def prepare(workload: str, seed: int, root: str) -> None:
    """Write the workload's inputs, relabelled unless ``seed`` is 0."""
    rng = random.Random(seed)
    for name, relabelled, payload in _inputs(workload):
        if seed != 0:
            payload = relabelled(rng, payload)
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(ioformats.stable_dumps(payload))


# ---------------------------------------------------------------------------
# Jobs.  Each is (name, thunk); a thunk returns the raw result.
# ---------------------------------------------------------------------------


def _audit_job(text: str, is_indexed: bool):
    def run():
        data = json.loads(text)
        if not is_indexed:
            return fitype.check_fi_type(ioformats.category_from_json(data)), {}
        M = ioformats.Loader().indexed(data)
        gr = groth.grothendieck(M)
        report = fitype.check_fi_type(gr.total)
        checks = {"locally_finite": fitype.check_locally_finite_product_law(M, gr).holds}
        for name, lemma in (
            ("mono", fitype.check_mono_lemma),
            ("ei", fitype.check_ei_lemma),
            ("increasing", fitype.check_increasing_lemma),
            ("transitivity", fitype.check_transitivity_lemma),
        ):
            t = lemma(M, gr)
            checks[name] = [t.total_side.holds, t.fiber_side.holds, t.agrees]
        g = theorem.check_gray_pullbacks(gr.proj)
        checks["gray"] = [g.left_side, g.right_side, g.biconditional_holds]
        return report, checks

    return run


def _cli_job(argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--json"] + argv)
        return code, out.getvalue()

    return run


def jobs(workload: str, seed: int, root: str) -> list:
    """The job list of one pass; ``root`` holds the prepared inputs.

    ``cli`` jobs run with ``root`` as the working directory, so every file
    they write lands there.
    """
    if workload == "audit":
        out = []
        for name, kind in AUDIT_INSTANCES:
            with open(os.path.join(root, name + ".json"), encoding="utf-8") as fh:
                out.append((name, _audit_job(fh.read(), kind == "indexed")))
        return out
    if workload == "build":
        out = list(BUILD_JOBS)
        random.Random(seed).shuffle(out)
        return out
    if workload == "cli":
        return [(name, _cli_job(argv)) for name, argv in CLI_JOBS]
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# Verdict oracle
# ---------------------------------------------------------------------------


def outcome(workload: str, raw) -> dict:
    """The exact and the relabelling-invariant form of a job's result."""
    if workload == "audit":
        report, checks = raw
        verdict = report.as_dict()
        return {
            "exact": {"report_sha256": sha256(ioformats.stable_dumps(verdict)), "checks": checks},
            "invariant": {"report": invariant(verdict), "checks": checks},
        }
    if workload == "build":
        counts = {
            "objects": len(raw.objects),
            "morphisms": len(raw.morphisms),
            "composites": len(raw.table),
            "triples": triples(raw),
        }
        return {"exact": counts, "invariant": counts}
    code, stdout = raw
    return {
        "exact": {"exit": code, "stdout_sha256": sha256(stdout)},
        "invariant": {"exit": code, "report": invariant(json.loads(stdout))},
    }


def mismatch(expected: dict, got: dict, seed: int):
    """None when ``got`` matches ``expected`` for this seed, else a reason."""
    forms = ("exact", "invariant") if seed == 0 else ("invariant",)
    for form in forms:
        if got[form] != expected[form]:
            return "%s form differs: expected %s, got %s" % (
                form,
                json.dumps(expected[form], sort_keys=True)[:300],
                json.dumps(got[form], sort_keys=True)[:300],
            )
    return None
