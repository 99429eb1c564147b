"""Command-line front end.

Exit codes: 0 when every requested check holds, 1 when some check fails,
2 on input errors.  ``--json`` emits a machine-readable report with stable
key order; the human-readable and JSON reports always carry the same
verdicts.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core import CategoryError
from .fitype import CONDITIONS, TRUNCATION_CAVEAT, check_fi_type
from .functors import functor_properties
from .generators import (
    block_perm_indexed,
    delta_const,
    fi_g_direct,
    fi_truncated,
    indexed_gpow,
    slice_indexed,
)
from .groth import NotAFibration, choose_cleaving, grothendieck, is_fibration
from .groups import (
    NotAnAction,
    cyclic_group,
    extension_from_twisted,
    find_homomorphic_section,
    symmetric_group,
    trivial_group,
    twisted_from_surjection,
)
from .ioformats import (
    InputFormatError,
    Loader,
    category_from_json,
    category_to_json,
    digest_bytes,
    functor_to_json,
    group_to_json,
    indexed_to_json,
    read_json_digest,
    stable_dumps,
)
from .theorem import TERMINOLOGY_NOTE, verify_main_theorem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_GROUPS = {
    "trivial": trivial_group,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z6": lambda: cyclic_group(6),
    "s3": lambda: symmetric_group(3),
}


class _Output:
    def __init__(self, args):
        self.as_json = args.json
        self.quiet = args.quiet

    def emit(self, report: dict, lines):
        if self.as_json:
            sys.stdout.write(stable_dumps(report))
        elif not self.quiet:
            for line in lines:
                print(line)


def _report_skeleton(command: str, path=None, digest=None) -> dict:
    return {
        "tool": {"name": "fibcat", "version": __version__},
        "command": command,
        "input": {"path": path, "sha256": digest},
    }


def _load_json(path: str):
    """The parsed file at ``path`` and the sha256 of its bytes, one read."""
    return read_json_digest(path)


def _load(path: str, parse):
    """``parse`` of the file at ``path`` and the sha256 of its bytes; the
    parsed JSON is dropped once ``parse`` returns."""
    data, digest = _load_json(path)
    return parse(data), digest


def _loader_for(path: str) -> Loader:
    return Loader(os.path.dirname(os.path.abspath(path)))


def _verdict_lines(report):
    lines = []
    for name in CONDITIONS:
        c = getattr(report, name)
        mark = "ok" if c.holds else "FAIL"
        extra = ""
        if c.counterexample is not None:
            extra = "  counterexample: %r" % (c.counterexample,)
        if c.info:
            extra += "  " + " ".join(
                "%s=%s" % (k, c.info[k]) for k in sorted(c.info)
            )
        lines.append("%-18s %s%s" % (name, mark, extra))
    return lines


def cmd_validate(args, out: _Output) -> int:
    C, digest = _load(args.path, category_from_json)
    rep = _report_skeleton("validate", args.path, digest)
    rep["verdict"] = {
        "valid": True,
        "objects": len(C.objects),
        "morphisms": len(C.morphisms),
        "isomorphisms": len(C.inverses),
    }
    out.emit(rep, ["valid: %d objects, %d morphisms" % (len(C.objects), len(C.morphisms))])
    return EXIT_OK


def cmd_functor(args, out: _Output) -> int:
    F, digest = _load(args.path, _loader_for(args.path).functor)
    props = functor_properties(F)
    rep = _report_skeleton("functor", args.path, digest)
    rep["verdict"] = {
        "valid": True,
        "full": props.full.holds,
        "faithful": props.faithful.holds,
        "essentially_surjective": props.essentially_surjective.holds,
        "equivalence": props.equivalence,
    }
    out.emit(
        rep,
        [
            "valid functor",
            "full=%s faithful=%s essentially_surjective=%s equivalence=%s"
            % (
                props.full.holds,
                props.faithful.holds,
                props.essentially_surjective.holds,
                props.equivalence,
            ),
        ],
    )
    return EXIT_OK


def cmd_fitype(args, out: _Output) -> int:
    C, digest = _load(args.path, category_from_json)
    report = check_fi_type(C)
    rep = _report_skeleton("fitype", args.path, digest)
    rep["verdict"] = report.as_dict()
    rep["caveat"] = TRUNCATION_CAVEAT
    lines = _verdict_lines(report)
    lines.append("all seven: %s" % ("hold" if report.holds else "FAIL"))
    lines.append("note: " + TRUNCATION_CAVEAT)
    out.emit(rep, lines)
    return EXIT_OK if report.holds else EXIT_CHECK_FAILED


def cmd_groth(args, out: _Output) -> int:
    M, digest = _load(args.path, _loader_for(args.path).indexed)
    gr = grothendieck(M)
    if args.output:
        payload = {
            "total": category_to_json(gr.total),
            "projection": functor_to_json(gr.proj, inline=False),
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(stable_dumps(payload))
    rep = _report_skeleton("groth", args.path, digest)
    rep["verdict"] = {
        "total_objects": len(gr.total.objects),
        "total_morphisms": len(gr.total.morphisms),
        "strict": M.strict,
        "output": args.output,
    }
    out.emit(
        rep,
        [
            "total category: %d objects, %d morphisms (strict=%s)"
            % (len(gr.total.objects), len(gr.total.morphisms), M.strict)
        ],
    )
    return EXIT_OK


def cmd_fibration(args, out: _Output) -> int:
    F, digest = _load(args.path, _loader_for(args.path).functor)
    verdict = is_fibration(F)
    rep = _report_skeleton("fibration", args.path, digest)
    rep["verdict"] = {
        "fibration": verdict.holds,
        "counterexample": repr(verdict.counterexample) if verdict.counterexample else None,
    }
    out.emit(rep, ["fibration: %s" % verdict.holds])
    return EXIT_OK if verdict.holds else EXIT_CHECK_FAILED


def cmd_cleaving(args, out: _Output) -> int:
    F, digest = _load(args.path, _loader_for(args.path).functor)
    rep = _report_skeleton("cleaving", args.path, digest)
    try:
        cleaving = choose_cleaving(F)
    except NotAFibration as exc:
        rep["verdict"] = {"fibration": False}
        out.emit(rep, ["not a fibration: %r" % (exc.args[0],)])
        return EXIT_CHECK_FAILED
    entries = {"%s -> %s" % (f, b): lift for (f, b), lift in sorted(cleaving.entries.items())}
    rep["verdict"] = {"fibration": True, "entries": entries}
    out.emit(
        rep,
        ["fibration with %d cleaving entries" % len(entries)]
        + ["Cart(%s) = %s" % (k, v) for k, v in sorted(entries.items())],
    )
    return EXIT_OK


def cmd_theorem(args, out: _Output) -> int:
    if args.budget < 0:
        raise InputFormatError("--budget must not be negative, got %d" % args.budget)
    M, digest = _load(args.path, _loader_for(args.path).indexed)
    witness = None
    if args.witness:
        witness = _loader_for(args.witness).witness(M, _load_json(args.witness)[0])
    verdict = verify_main_theorem(M, witness, search=args.search, budget=args.budget)
    hyp = verdict.hypotheses
    rep = _report_skeleton("theorem", args.path, digest)
    rep["verdict"] = {
        "h1_fibers_fi_type": hyp.h1.holds,
        "h2_endomorphism_maps_invertible": hyp.h2.holds,
        "h3_inclusions_preserve_pullbacks": hyp.h3.holds,
        "h4_weakly_reversible": hyp.h4.holds,
        "hypotheses_hold": hyp.holds,
        "conclusion_checked": verdict.conclusion_checked,
        "total_fi_type": verdict.total_fi_type.holds,
        "projection_preserves_pullbacks": verdict.proj_preserves_pullbacks.holds,
        "projection_preserves_weak_pushouts": verdict.proj_preserves_weak_pushouts.holds,
        "alarm": verdict.alarm,
    }
    rep["caveat"] = TRUNCATION_CAVEAT
    rep["notes"] = list(hyp.notes)
    lines = [
        "note: " + TERMINOLOGY_NOTE,
        "h1 fibers FI-type:                %s" % hyp.h1.holds,
        "h2 endomorphism maps invertible:  %s" % hyp.h2.holds,
        "h3 inclusions preserve pullbacks: %s" % hyp.h3.holds,
        "h4 weakly reversible:             %s" % hyp.h4.holds,
        "conclusion (direct audit):        total FI-type=%s, preserves pullbacks=%s, preserves weak pushouts=%s"
        % (
            verdict.total_fi_type.holds,
            verdict.proj_preserves_pullbacks.holds,
            verdict.proj_preserves_weak_pushouts.holds,
        ),
        "soundness alarm:                  %s" % verdict.alarm,
    ]
    out.emit(rep, lines)
    ok = hyp.holds and verdict.confirmed
    return EXIT_OK if ok and not verdict.alarm else EXIT_CHECK_FAILED


def cmd_group(args, out: _Output) -> int:
    loader = _loader_for(args.path)
    data, digest = _load_json(args.path)
    rep = _report_skeleton("group %s" % args.mode, args.path, digest)
    if args.mode == "ext":
        T = loader.twisted(data)
        try:
            ext = extension_from_twisted(T)
        except NotAnAction as exc:
            rep["verdict"] = {"twisted_action_valid": False, "counterexample": repr(exc)}
            out.emit(rep, ["twisted action invalid: %r" % (exc,)])
            return EXIT_CHECK_FAILED
        split = find_homomorphic_section(ext.proj) is not None
        rep["verdict"] = {
            "twisted_action_valid": True,
            "extension_order": len(ext.total),
            "kernel_order": len(T.acted),
            "quotient_order": len(T.acting),
            "split": split,
            "total_group": group_to_json(ext.total),
        }
        out.emit(
            rep,
            [
                "extension of order %d (kernel %d, quotient %d), split=%s"
                % (len(ext.total), len(T.acted), len(T.acting), split)
            ],
        )
        return EXIT_OK
    proj, section = loader.surjection(data)
    if args.mode == "twist":
        if section is None:
            raise InputFormatError("twist requires a 'section' table")
        T = twisted_from_surjection(proj, section)
        phi_json = {"%s|%s" % (a, b): v for (a, b), v in sorted(T.phi.items())}
        rep["verdict"] = {
            "kernel": list(T.acted.elements),
            "act": {g: dict(sorted(m.items())) for g, m in sorted(T.act.items())},
            "phi": phi_json,
            "valid": True,  # straighten checked the action, which a section always gives
        }
        out.emit(
            rep,
            ["twisted action on kernel of order %d" % len(T.acted)]
            + ["phi(%s) = %s" % (k, v) for k, v in sorted(phi_json.items())],
        )
        return EXIT_OK
    if args.mode == "split":
        s = find_homomorphic_section(proj)
        rep["verdict"] = {
            "split": s is not None,
            "section": dict(sorted(s.mapping.items())) if s else None,
        }
        out.emit(rep, ["split: %s" % (s is not None)])
        return EXIT_OK
    raise InputFormatError("unknown group mode %r" % args.mode)


def _resolve_group(spec: str):
    if spec in _GROUPS:
        return _GROUPS[spec]()
    return Loader(".").group(spec)


def _write_generated(args, out: _Output, name: str, payload: dict, summary: str) -> int:
    text = stable_dumps(payload)
    path = args.output
    if path is None and args.seed_corpus:
        os.makedirs(args.seed_corpus, exist_ok=True)
        path = os.path.join(args.seed_corpus, name)
    rep = _report_skeleton("gen", path, digest_bytes(text.encode("utf-8")))
    rep["verdict"] = {"written": path, "summary": summary}
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.emit(rep, ["wrote %s (%s)" % (path, summary)])
    else:
        if out.as_json:
            out.emit(rep | {"payload": payload}, [])
        else:
            sys.stdout.write(text)
    return EXIT_OK


# Each ``gen`` subcommand: its required options beside -o, its default file
# name and its summary, filled in from the parsed options (``tag`` is the
# --group with "/" as "_"), and its payload.
_GENERATORS = {
    "fi": (("max",), "fi%(max)d.json", "FI truncated at %(max)d", lambda a: category_to_json(fi_truncated(a.max))),
    "fig": (
        ("group", "max"),
        "fig_%(tag)s_%(max)d.json",
        "group-power indexed category over FI(<=%(max)d)",
        lambda a: indexed_to_json(indexed_gpow(_resolve_group(a.group), a.max)),
    ),
    "direct": (
        ("group", "max"),
        "fi_%(tag)s_%(max)d_direct.json",
        "decorated-injection category",
        lambda a: category_to_json(fi_g_direct(_resolve_group(a.group), a.max)),
    ),
    "delta": (
        ("x", "y"),
        "delta.json",
        "constant indexed category",
        lambda a: indexed_to_json(delta_const(Loader(".").category(a.x), Loader(".").category(a.y))),
    ),
    "blocks": (
        ("max", "inner"),
        "blocks_%(max)d_%(inner)d.json",
        "block-permutation indexed category",
        lambda a: indexed_to_json(block_perm_indexed(a.max, a.inner)),
    ),
    "slice": (
        ("base",),
        "slice.json",
        "slice indexed category",
        lambda a: indexed_to_json(slice_indexed(Loader(".").category(a.base))),
    ),
}
_COUNTS = ("max", "inner")  # the integer options, which must not be negative


def cmd_gen(args, out: _Output) -> int:
    for flag in _COUNTS:
        n = getattr(args, flag, 0)
        if n < 0:
            raise InputFormatError("--%s must not be negative, got %d" % (flag, n))
    _, name, summary, payload = _GENERATORS[args.what]
    fields = dict(vars(args), tag=getattr(args, "group", "").replace("/", "_"))
    return _write_generated(args, out, name % fields, payload(args), summary % fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibcat",
        description="Finite categories, Grothendieck constructions, and FI-type audits.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument("--quiet", action="store_true", help="suppress human output")
    parser.add_argument(
        "--seed-corpus",
        metavar="DIR",
        default=None,
        help="directory that gen subcommands write into when -o is not given",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a category file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("functor", help="validate a functor file and report properties")
    p.add_argument("path")
    p.set_defaults(func=cmd_functor)

    p = sub.add_parser("fitype", help="run the seven-condition audit")
    p.add_argument("path")
    p.set_defaults(func=cmd_fitype)

    p = sub.add_parser("groth", help="run the Grothendieck construction")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_groth)

    p = sub.add_parser("fibration", help="check the cartesian lifting property")
    p.add_argument("path")
    p.set_defaults(func=cmd_fibration)

    p = sub.add_parser("cleaving", help="choose a normalized cleaving")
    p.add_argument("path")
    p.set_defaults(func=cmd_cleaving)

    p = sub.add_parser("theorem", help="audit hypotheses and conclusion")
    p.add_argument("path")
    p.add_argument("--witness", default=None)
    p.add_argument("--search", action="store_true")
    p.add_argument("--budget", type=int, default=50_000)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("group", help="group extension utilities")
    p.add_argument("mode", choices=["ext", "twist", "split"])
    p.add_argument("path")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("gen", help="generate example artifacts")
    gsub = p.add_subparsers(dest="what", required=True)
    for what, (options, *_) in _GENERATORS.items():
        g = gsub.add_parser(what)
        for option in options:
            g.add_argument("--" + option, type=int if option in _COUNTS else str, required=True)
        g.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args)
    try:
        return args.func(args, out)
    except (OSError, InputFormatError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CategoryError as exc:
        if args.command in ("validate", "functor"):
            rep = _report_skeleton(args.command, args.path, None)
            rep["verdict"] = {"valid": False, "error": type(exc).__name__, "detail": repr(exc.args)}
            out.emit(rep, ["invalid: %s %r" % (type(exc).__name__, exc.args)])
            return EXIT_CHECK_FAILED
        print("input error: %s %r" % (type(exc).__name__, exc.args), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
