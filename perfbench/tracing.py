"""Outside-in tracing: wrap fibcat's public functions and record spans.

``Tracer.install`` replaces every binding of each listed function object in
the ``fibcat.*`` module namespaces (and on the ``Loader`` class) with a
wrapper.  Re-exports such as ``fitype.pullback`` and calls inside a module,
such as ``is_pullback_square`` inside ``limits._pullback_completions``, both
resolve through those bindings, so both are seen.  ``restore`` puts the
originals back and ``assert_unwrapped`` checks by identity that no wrapper is
left.

A span is (function, parent span, start, end).  Spans are kept in flat
arrays during the pass; self times are computed afterwards.  Counters are
taken after a span's clock stops, so their cost lands in the caller's self
time and in ``trace.overhead_ratio``, never in the span itself.

Generators such as ``limits.all_cospans`` are not wrapped: iterating them is
the caller's time.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# Span group of every wrapped function, by (module, qualified name).  A
# group's self time is reported as ``<group>.self_s``.
SPAN_GROUPS = {
    ("core", "validate_category"): "core.validate_category",
    ("core", "mono_witness"): "core.predicates",
    ("core", "is_ei"): "core.predicates",
    ("core", "is_transitive"): "core.predicates",
    ("core", "iso_classes"): "core.predicates",
    ("core", "below_set"): "core.predicates",
    ("generators", "fi_truncated"): "generators",
    ("generators", "fi_g_direct"): "generators",
    ("generators", "indexed_gpow"): "generators",
    ("generators", "gpow_fiber"): "generators",
    ("generators", "block_perm_indexed"): "generators",
    ("generators", "delta_const"): "generators",
    ("generators", "slice_indexed"): "generators",
    ("generators", "slice_category"): "generators",
    ("generators", "arrow_category"): "generators",
    ("indexed", "validate_indexed"): "indexed.validate_indexed",
    ("functors", "validate_functor"): "functors.validate_functor",
    ("groth", "grothendieck"): "groth.grothendieck",
    ("groth", "is_fibration"): "groth.is_fibration",
    ("groth", "is_cartesian"): "groth.is_cartesian",
    ("groth", "choose_cleaving"): "groth.choose_cleaving",
    ("limits", "pullback"): "limits.pullback",
    ("limits", "weak_pushout"): "limits.weak_pushout",
    ("limits", "has_pullback_square_completion"): "limits.has_pullback_square_completion",
    ("limits", "is_pullback_square"): "limits.is_pullback_square",
    ("limits", "preserves_pullbacks"): "limits.preserves_pullbacks",
    ("limits", "preserves_weak_pushouts"): "limits.preserves_weak_pushouts",
    ("fitype", "check_fi_type"): "fitype.check_fi_type",
    ("fitype", "check_locally_finite_product_law"): "fitype.lemmas",
    ("fitype", "check_mono_lemma"): "fitype.lemmas",
    ("fitype", "check_ei_lemma"): "fitype.lemmas",
    ("fitype", "check_increasing_lemma"): "fitype.lemmas",
    ("fitype", "check_transitivity_lemma"): "fitype.lemmas",
    ("fitype", "endomorphism_invertibility"): "fitype.lemmas",
    ("fitype", "transitivity_ell_condition"): "fitype.lemmas",
    ("theorem", "check_hypotheses"): "theorem.check_hypotheses",
    ("theorem", "verify_main_theorem"): "theorem.verify_main_theorem",
    ("theorem", "search_witness"): "theorem.search_witness",
    ("theorem", "check_gray_pullbacks"): "theorem.check_gray_pullbacks",
    ("groups", "validate_group"): "groups",
    ("groups", "validate_group_hom"): "groups",
    ("groups", "cyclic_group"): "groups",
    ("groups", "twisted_from_surjection"): "groups",
    ("groups", "validate_twisted_action"): "groups",
    ("groups", "extension_from_twisted"): "groups",
    ("groups", "find_homomorphic_section"): "groups",
    ("ioformats", "category_from_json"): "ioformats.load",
    ("ioformats", "group_from_json"): "ioformats.load",
    ("ioformats", "digest_file"): "ioformats.load",
    ("ioformats", "Loader.category"): "ioformats.load",
    ("ioformats", "Loader.group"): "ioformats.load",
    ("ioformats", "Loader.functor"): "ioformats.load",
    ("ioformats", "Loader.indexed"): "ioformats.load",
    ("ioformats", "Loader.witness"): "ioformats.load",
    ("ioformats", "stable_dumps"): "ioformats.dump",
    ("ioformats", "category_to_json"): "ioformats.dump",
    ("ioformats", "functor_to_json"): "ioformats.dump",
    ("ioformats", "indexed_to_json"): "ioformats.dump",
    ("ioformats", "group_to_json"): "ioformats.dump",
    ("cli", "main"): "cli.main",
}

# The FI-type condition each direct child of ``check_fi_type`` serves.
CONDITION_OF = {
    ("core", "mono_witness"): "all_mono",
    ("core", "is_ei"): "ei",
    ("core", "is_transitive"): "transitive",
    ("core", "iso_classes"): "increasing",
    ("core", "below_set"): "increasing",
    ("limits", "pullback"): "has_pullbacks",
    ("limits", "has_pullback_square_completion"): "has_weak_pushouts",
    ("limits", "weak_pushout"): "has_weak_pushouts",
}
CONDITIONS = ("all_mono", "ei", "transitive", "increasing", "has_pullbacks", "has_weak_pushouts")

# Span groups whose call counts are reported as ``<group>.calls``.
COUNTED_CALLS = (
    "core.validate_category",
    "functors.validate_functor",
    "groth.is_cartesian",
    "limits.pullback",
    "limits.weak_pushout",
    "limits.is_pullback_square",
    "cli.main",
)

COUNTERS = (
    "core.composites_total",
    "generators.morphisms",
    "limits.spans",
    "limits.vacuous_spans",
    "ioformats.bytes_read",
    "ioformats.bytes_written",
)


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1.  A child always
    starts after its parent, so a single pass over the spans suffices.
    """
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def _resolve(modname: str, qualname: str):
    mod = sys.modules["fibcat." + modname]
    owner = mod
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[parts[-1]]


def _fibcat_namespaces():
    """Every fibcat module namespace, plus the classes that hold methods."""
    spaces = [m for n, m in sorted(sys.modules.items()) if n == "fibcat" or n.startswith("fibcat.")]
    return spaces + [sys.modules["fibcat.ioformats"].Loader]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


_ORIGINALS = {}


def _originals() -> dict:
    """The unwrapped function of every traced key, captured on first use."""
    if not _ORIGINALS:
        assert_unwrapped()
        keys = list(SPAN_GROUPS) + list(COUNT_ONLY)
        _ORIGINALS.update((k, _resolve(*k)) for k in keys)
    return _ORIGINALS


def assert_unwrapped() -> None:
    """Raise unless no fibcat binding holds a tracing wrapper.

    Every traced key must resolve to the very function object seen before
    any wrapper was installed, and no namespace may hold a wrapper under
    another name.
    """
    for ns in _fibcat_namespaces():
        for attr, value in vars(ns).items():
            if getattr(value, "__perfbench_wrapper__", False):
                raise RuntimeError("tracing wrapper left on %s.%s" % (ns.__name__, attr))
    for key, fn in _ORIGINALS.items():
        if _resolve(*key) is not fn:
            raise RuntimeError("fibcat.%s.%s is not the original function" % key)


class Tracer:
    """Records spans and counters of the wrapped functions during one pass."""

    def __init__(self):
        import fibcat.cli  # noqa: F401  (loads every fibcat module)

        self.keys = list(SPAN_GROUPS) + list(COUNT_ONLY)
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.largest = (0, 0)  # (composites, triples) of the largest category
        self.depth = dict.fromkeys(set(SPAN_GROUPS.values()), 0)
        self._stack = []
        self._bindings = []  # (namespace, attribute, original)

    # -- installing and removing wrappers --------------------------------

    def install(self) -> None:
        originals = _originals()
        by_id = {id(fn): code for code, fn in enumerate(originals[k] for k in self.keys)}
        wrappers = {}
        for ns in _fibcat_namespaces():
            for attr, value in list(vars(ns).items()):
                code = by_id.get(id(value))
                if code is None:
                    continue
                if code not in wrappers:
                    wrappers[code] = self._wrap(code, value)
                setattr(ns, attr, wrappers[code])
                self._bindings.append((ns, attr, value))

    def restore(self) -> None:
        for ns, attr, fn in reversed(self._bindings):
            setattr(ns, attr, fn)
        self._bindings = []
        assert_unwrapped()

    def _wrap(self, code: int, fn):
        key = self.keys[code]
        group = SPAN_GROUPS.get(key)
        hook = _HOOKS.get(key) or COUNT_ONLY.get(key)
        fns, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self._stack
        depth = self.depth
        clock = time.perf_counter

        if group is None:

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(self, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                i = len(starts)
                fns.append(code)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(i)
                depth[group] += 1
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                    depth[group] -= 1
                if hook is not None:
                    hook(self, args, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the recorded spans; ``pass_s`` is the pass wall."""
        own = self_times(self.parent, self.start, self.end)
        groups = sorted(set(SPAN_GROUPS.values()))
        self_s = dict.fromkeys(groups, 0.0)
        calls = dict.fromkeys(groups, 0)
        cond = dict.fromkeys(CONDITIONS, 0.0)
        fi_code = self.keys.index(("fitype", "check_fi_type"))
        for i, code in enumerate(self.fn):
            group = SPAN_GROUPS[self.keys[code]]
            self_s[group] += own[i]
            calls[group] += 1
            p = self.parent[i]
            if p >= 0 and self.fn[p] == fi_code:
                name = CONDITION_OF.get(self.keys[code])
                if name is not None:
                    cond[name] += self.end[i] - self.start[i]
        out = {g + ".self_s": self_s[g] for g in groups}
        out.update({g + ".calls": calls[g] for g in COUNTED_CALLS})
        out.update({"fitype.cond.%s.s" % c: cond[c] for c in CONDITIONS})
        c = self.counters
        out["core.composites"], out["core.triples"] = self.largest
        out["core.composites_total"] = c["core.composites_total"]
        out["generators.morphisms"] = c["generators.morphisms"]
        out["limits.vacuous_span_ratio"] = (
            c["limits.vacuous_spans"] / c["limits.spans"] if c["limits.spans"] else 0.0
        )
        out["ioformats.bytes_read"] = c["ioformats.bytes_read"]
        out["ioformats.bytes_written"] = c["ioformats.bytes_written"]
        out["trace.coverage_ratio"] = sum(own) / pass_s if pass_s > 0 else 0.0
        return out


# ---------------------------------------------------------------------------
# Counter hooks, run after the span's clock stops: (tracer, args, result).
# ---------------------------------------------------------------------------


def _on_validate_category(tr: Tracer, args, C) -> None:
    from workloads import triples

    n = len(C.table)
    tr.counters["core.composites_total"] += n
    if tr.depth["generators"]:
        tr.counters["generators.morphisms"] += len(C.morphisms)
    if n > tr.largest[0]:
        tr.largest = (n, triples(C))


def _on_check_fi_type(tr: Tracer, args, report) -> None:
    info = report.has_weak_pushouts.info
    tr.counters["limits.spans"] += info.get("spans", 0)
    tr.counters["limits.vacuous_spans"] += info.get("vacuous_spans", 0)


def _on_read_path(tr: Tracer, args, result) -> None:
    tr.counters["ioformats.bytes_read"] += _file_size(args[0])


def _on_loader_ref(tr: Tracer, args, result) -> None:
    loader, ref = args[0], args[1]
    if isinstance(ref, str):
        tr.counters["ioformats.bytes_read"] += _file_size(os.path.join(loader.root, ref))


def _on_dumps(tr: Tracer, args, text) -> None:
    tr.counters["ioformats.bytes_written"] += len(text.encode("utf-8"))


_HOOKS = {
    ("core", "validate_category"): _on_validate_category,
    ("fitype", "check_fi_type"): _on_check_fi_type,
    ("ioformats", "digest_file"): _on_read_path,
    ("ioformats", "Loader.category"): _on_loader_ref,
    ("ioformats", "Loader.group"): _on_loader_ref,
    ("ioformats", "stable_dumps"): _on_dumps,
}

# Wrapped for a counter only, without a span: the CLI's own JSON read is
# part of ``cli.main``'s self time.
COUNT_ONLY = {
    ("cli", "_load_json"): _on_read_path,
}
