"""Every subcommand on random JSON: exit 0, 1 or 2, and never a traceback.

Inputs are either small random values (nested objects and lists whose keys
come from the file formats) or a valid document of some format with one
subtree replaced or deleted, so that they also get past the first layer of
parsing and reach validation and the checks.  Deterministically, every id
of every document is also wrapped in a list, which must exit 2.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fibcat.cli import main
from fibcat.functors import identity_functor
from fibcat.generators import delta_const, fi_truncated, terminal_category
from fibcat.groups import cyclic_group, strict_twisted, trivial_action
from fibcat.ioformats import (
    category_to_json,
    functor_to_json,
    group_to_json,
    indexed_to_json,
    stable_dumps,
    witness_to_json,
)
from fibcat.theorem import invertible_arrow_witness

FI1 = fi_truncated(1)
Z2 = cyclic_group(2)
TINY = delta_const(FI1, terminal_category())
TWISTED = strict_twisted(Z2, Z2, trivial_action(Z2, Z2))

# One valid document per input format; the "ix.json" file is what the
# witness documents refer to.
DOCUMENTS = {
    "c.json": category_to_json(FI1),
    "g.json": group_to_json(Z2),
    "f.json": functor_to_json(identity_functor(FI1)),
    "ix.json": indexed_to_json(TINY),
    "w.json": witness_to_json(invertible_arrow_witness(TINY)),
    "ext.json": {
        "acting": group_to_json(Z2),
        "acted": group_to_json(Z2),
        "act": TWISTED.act,
        "phi": {"%s|%s" % k: v for k, v in TWISTED.phi.items()},
    },
    "surj.json": {
        "total": group_to_json(Z2),
        "target": group_to_json(Z2),
        "proj": {"0": "0", "1": "1"},
        "section": {"0": "0", "1": "1"},
    },
}

# Dict keys, and also leaf strings: the document file names among them make
# by-path references resolve to the files written next to the input.
FORMAT_KEYS = sorted(
    {
        "objects", "morphisms", "identities", "composition",
        "id", "src", "tgt", "first", "then", "equals",
        "source", "target", "on_objects", "on_morphisms",
        "base", "fibers", "arrows", "compositors", "unitors", "pushforwards", "units",
        "elements", "mult", "unit", "acting", "acted", "act", "phi", "total", "proj", "section",
        "*", "0", "1", "0|1", "1|1", *FI1.morphisms, *DOCUMENTS,
    }
)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(FORMAT_KEYS),
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)

_DELETE = object()


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(doc, path, value):
    """``doc`` with the subtree at the non-empty ``path`` replaced by
    ``value``, or removed when ``value`` is ``_DELETE``."""
    head, rest = path[0], path[1:]
    doc = copy.copy(doc)
    if rest:
        doc[head] = _mutate(doc[head], rest, value)
    elif value is _DELETE:
        del doc[head]
    else:
        doc[head] = value
    return doc


mutated = st.sampled_from(sorted(DOCUMENTS)).flatmap(
    lambda name: st.builds(
        _mutate,
        st.just(DOCUMENTS[name]),
        st.sampled_from(list(_paths(DOCUMENTS[name]))[1:]),
        values | st.just(_DELETE),
    )
)

COMMANDS = {
    "validate": ["validate", "input.json"],
    "functor": ["functor", "input.json"],
    "fitype": ["fitype", "input.json"],
    "groth": ["groth", "input.json"],
    "fibration": ["fibration", "input.json"],
    "cleaving": ["cleaving", "input.json"],
    "theorem": ["theorem", "input.json"],
    "theorem-witness": ["theorem", "ix.json", "--witness", "input.json"],
    "group-ext": ["group", "ext", "input.json"],
    "group-twist": ["group", "twist", "input.json"],
    "group-split": ["group", "split", "input.json"],
}


def _run(argv, value):
    """``fibcat --json`` on ``argv``, with ``value`` as input.json next to
    the DOCUMENTS files: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in DOCUMENTS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(stable_dumps(payload))
        with open(os.path.join(tmp, "input.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(value))
        argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json"] + argv)
    return code, out.getvalue(), err.getvalue()


def _is_input_error(out: str, err: str) -> bool:
    return out == "" and err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(value=values | mutated)
def test_random_json_never_escapes_the_cli(command, value):
    code, out, err = _run(COMMANDS[command], value)
    assert code in (0, 1, 2)
    if code == 2:
        assert _is_input_error(out, err)
    else:
        assert "verdict" in json.loads(out)


# The commands that read each document as input.json; the group file is read
# by the generators.  The witness command reads ix.json too, unchanged.
READERS = {
    "c.json": ["validate", "fitype"],
    "g.json": ["gen-fig"],
    "f.json": ["functor", "fibration", "cleaving"],
    "ix.json": ["groth", "theorem"],
    "w.json": ["theorem-witness"],
    "ext.json": ["group-ext"],
    "surj.json": ["group-split", "group-twist"],
}
assert sorted(READERS) == sorted(DOCUMENTS)
ARGV = COMMANDS | {"gen-fig": ["gen", "fig", "--group", "input.json", "--max", "1"]}


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_list_where_an_id_belongs_is_an_input_error(name):
    """Every string leaf of a document is an id.  Read with ``str()``, the
    one-element list ["x"] became the id "['x']", which no file names, and
    the command reported a failed check (exit 1) or even a verdict (exit 0)."""
    doc = DOCUMENTS[name]
    failures = []
    for path in _paths(doc):
        leaf = functools.reduce(operator.getitem, path, doc)
        if isinstance(leaf, str):
            for command in READERS[name]:
                code, out, err = _run(ARGV[command], _mutate(doc, path, [leaf]))
                if code != 2 or not _is_input_error(out, err):
                    failures.append((command, path, code))
    assert failures == []
