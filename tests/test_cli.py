import json
import os
from itertools import product

import numpy as np
import pytest

from fibcat.cli import main
from fibcat.generators import (
    block_perm_indexed,
    chain_poset,
    delta_const,
    discrete_category,
    fi_truncated,
    indexed_gpow,
    slice_indexed,
    terminal_category,
)
from fibcat.groups import TwistedAction, cyclic_group, twisted_from_surjection, validate_group_hom
from fibcat.ioformats import (
    Loader,
    category_from_json,
    category_to_json,
    group_to_json,
    indexed_to_json,
    stable_dumps,
)
from fibcat.theorem import gpow_witness


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def assert_stable(text):
    """``text`` is the one stable JSON writing of its value."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def run(capsys, *argv):
    """Run the CLI; check the bytes of a ``--json`` report and of every file
    the run wrote."""
    code = main(list(argv))
    out = capsys.readouterr()
    if "--json" in argv and out.out:
        assert_stable(out.out)
    written = [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("-o", "--output")]
    if "--seed-corpus" in argv:
        corpus = argv[argv.index("--seed-corpus") + 1]
        written += [os.path.join(corpus, name) for name in os.listdir(corpus)]
    for path in written:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                assert_stable(fh.read())
    return code, out.out, out.err


def test_gen_validate_roundtrip(workdir, capsys):
    code, _, _ = run(capsys, "gen", "fi", "--max", "2", "-o", "fi2.json")
    assert code == 0
    code, out, _ = run(capsys, "validate", "fi2.json")
    assert code == 0 and "valid" in out
    C = category_from_json(json.load(open("fi2.json")))
    assert len(C.morphisms) == 8


def test_validate_reports_failures(workdir, capsys):
    data = category_to_json(fi_truncated(1))
    data["identities"].pop("0")
    open("broken.json", "w").write(stable_dumps(data))
    code, out, _ = run(capsys, "validate", "broken.json")
    assert code == 1 and "MissingIdentity" in out


def test_missing_file_is_input_error(workdir, capsys):
    code, _, err = run(capsys, "validate", "missing.json")
    assert code == 2 and "input error" in err


def test_fitype_command_and_exit_codes(workdir, capsys):
    run(capsys, "gen", "fi", "--max", "2", "-o", "fi2.json")
    code, out, _ = run(capsys, "fitype", "fi2.json")
    assert code == 0 and "all seven: hold" in out
    # idempotent monoid fails -> exit 1
    payload = {
        "objects": ["*"],
        "morphisms": [
            {"id": "1", "src": "*", "tgt": "*"},
            {"id": "e", "src": "*", "tgt": "*"},
        ],
        "identities": {"*": "1"},
        "composition": [{"first": "e", "then": "e", "equals": "e"}],
    }
    open("idem.json", "w").write(stable_dumps(payload))
    code, out, _ = run(capsys, "fitype", "idem.json")
    assert code == 1


def test_groth_fibration_cleaving_pipeline(workdir, capsys):
    run(capsys, "gen", "fig", "--group", "z2", "--max", "2", "-o", "fig.json")
    code, out, _ = run(capsys, "groth", "fig.json", "-o", "total.json")
    assert code == 0 and "17 morphisms" in out
    payload = json.load(open("total.json"))
    total = category_from_json(payload["total"])
    fun = {
        "source": payload["total"],
        "target": category_to_json(fi_truncated(2)),
        "on_objects": payload["projection"]["on_objects"],
        "on_morphisms": payload["projection"]["on_morphisms"],
    }
    open("proj.json", "w").write(stable_dumps(fun))
    code, out, _ = run(capsys, "fibration", "proj.json")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "cleaving", "proj.json")
    assert code == 0 and "cleaving entries" in out


def test_functor_command(workdir, capsys):
    cat = category_to_json(fi_truncated(1))
    fun = {
        "source": cat,
        "target": cat,
        "on_objects": {"0": "0", "1": "1"},
        "on_morphisms": {m["id"]: m["id"] for m in cat["morphisms"]},
    }
    open("idfun.json", "w").write(stable_dumps(fun))
    code, out, _ = run(capsys, "functor", "idfun.json")
    assert code == 0 and "equivalence=True" in out


def test_theorem_command_with_witness(workdir, capsys, z2):
    run(capsys, "gen", "fig", "--group", "z2", "--max", "2", "-o", "fig.json")
    M = indexed_gpow(z2, 2)
    w = gpow_witness(z2, M)
    from fibcat.ioformats import witness_to_json

    open("w.json", "w").write(stable_dumps(witness_to_json(w)))
    code, out, _ = run(capsys, "theorem", "fig.json", "--witness", "w.json")
    assert code == 0
    assert "soundness alarm:                  False" in out
    # without a witness h4 fails -> exit 1
    code, out, _ = run(capsys, "theorem", "fig.json")
    assert code == 1


def test_group_commands(workdir, capsys, z4, z2):
    surj = {
        "total": group_to_json(z4),
        "target": group_to_json(z2),
        "proj": {"0": "0", "1": "1", "2": "0", "3": "1"},
        "section": {"0": "0", "1": "1"},
    }
    open("surj.json", "w").write(stable_dumps(surj))
    code, out, _ = run(capsys, "group", "twist", "surj.json")
    assert code == 0 and "phi(1|1) = 2" in out
    code, out, _ = run(capsys, "group", "split", "surj.json")
    assert code == 0 and "split: False" in out

    code, out, _ = run(capsys, "--json", "group", "twist", "surj.json")
    twisted = json.loads(out)["verdict"]
    ext_input = {
        "acting": group_to_json(z2),
        "acted": {
            "elements": twisted["kernel"],
            "mult": [["0", "2"], ["2", "0"]],
            "unit": "0",
        },
        "act": twisted["act"],
        "phi": twisted["phi"],
    }
    open("tw.json", "w").write(stable_dumps(ext_input))
    code, out, _ = run(capsys, "group", "ext", "tw.json")
    assert code == 0 and "order 4" in out and "split=False" in out


def test_failing_verdict_reports_are_stable_json(workdir, capsys):
    """Reports of failed checks hold reprs of counterexamples and false
    verdicts; ``run`` checks their bytes like those of passing ones."""
    point = category_to_json(discrete_category("a"))
    # a over p1 has no lift of p0 -> p1
    not_fibration = {
        "source": point,
        "target": category_to_json(chain_poset(2)),
        "on_objects": {"a": "p1"},
        "on_morphisms": {"id_a": "p1_to_p1"},
    }
    open("nf.json", "w").write(stable_dumps(not_fibration))
    code, out, _ = run(capsys, "--json", "fibration", "nf.json")
    assert code == 1 and json.loads(out)["verdict"]["counterexample"]
    code, out, _ = run(capsys, "--json", "cleaving", "nf.json")
    assert code == 1 and json.loads(out)["verdict"] == {"fibration": False}
    idempotent = {
        "objects": ["*"],
        "morphisms": [{"id": "1", "src": "*", "tgt": "*"}, {"id": "e", "src": "*", "tgt": "*"}],
        "identities": {"*": "1"},
        "composition": [{"first": "e", "then": "e", "equals": "e"}],
    }
    open("idem.json", "w").write(stable_dumps(idempotent))
    code, out, _ = run(capsys, "--json", "fitype", "idem.json")
    assert code == 1 and json.loads(out)["verdict"]["all_mono"]["counterexample"]
    run(capsys, "gen", "fig", "--group", "z2", "--max", "2", "-o", "fig.json")
    code, out, _ = run(capsys, "--json", "theorem", "fig.json")
    assert code == 1 and not json.loads(out)["verdict"]["h4_weakly_reversible"]
    data = category_to_json(fi_truncated(1))
    data["identities"].pop("0")
    open("broken.json", "w").write(stable_dumps(data))
    code, out, _ = run(capsys, "--json", "validate", "broken.json")
    assert code == 1 and json.loads(out)["verdict"]["error"] == "MissingIdentity"


def test_json_reports_are_byte_stable(workdir, capsys):
    run(capsys, "gen", "fi", "--max", "2", "-o", "fi2.json")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "fitype", "fi2.json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["tool"]["name"] == "fibcat"
    assert report["input"]["sha256"]


def test_seed_corpus_directory(workdir, capsys):
    code, out, _ = run(capsys, "--seed-corpus", "corpus", "gen", "fi", "--max", "1")
    assert code == 0
    assert os.path.exists(os.path.join("corpus", "fi1.json"))


def test_gen_delta_blocks_slice(workdir, capsys):
    run(capsys, "gen", "fi", "--max", "1", "-o", "fi1.json")
    code, _, _ = run(capsys, "gen", "delta", "--x", "fi1.json", "--y", "fi1.json", "-o", "delta.json")
    assert code == 0
    loader = Loader(".")
    M = loader.indexed(json.load(open("delta.json")))
    assert M.strict
    code, _, _ = run(capsys, "gen", "blocks", "--max", "1", "--inner", "1", "-o", "blocks.json")
    assert code == 0
    code, _, _ = run(capsys, "gen", "slice", "--base", "fi1.json", "-o", "slice.json")
    assert code == 0
    M2 = loader.indexed(json.load(open("slice.json")))
    gr = None  # parsing and validating is the point
    code, out, _ = run(capsys, "groth", "slice.json", "-o", "sl_total.json")
    assert code == 0


def test_quiet_suppresses_output(workdir, capsys):
    run(capsys, "gen", "fi", "--max", "1", "-o", "fi1.json")
    code, out, _ = run(capsys, "--quiet", "validate", "fi1.json")
    assert code == 0 and out == ""


def test_theorem_search_flag(workdir, capsys):
    # a tiny constant instance where the bounded search finds the witness
    cat = category_to_json(fi_truncated(1))
    open("c.json", "w").write(stable_dumps(cat))
    code, _, _ = run(capsys, "gen", "delta", "--x", "c.json", "--y", "c.json", "-o", "d.json")
    assert code == 0
    code, out, _ = run(capsys, "theorem", "d.json", "--search", "--budget", "50000")
    assert code == 0
    assert "h4 weakly reversible:             True" in out


@pytest.mark.parametrize(
    "build", [lambda: slice_indexed(fi_truncated(2)), lambda: block_perm_indexed(2, 1)]
)
def test_theorem_search_that_finds_nothing_fails_h4(workdir, capsys, build):
    """An exhausted witness search is a failed check, exit 1, not an input
    error; an exhausted budget stays one."""
    open("m.json", "w").write(stable_dumps(indexed_to_json(build())))
    code, out, err = run(capsys, "--json", "theorem", "m.json", "--search")
    rep = json.loads(out)
    assert (code, err) == (1, "")
    assert rep["verdict"]["h4_weakly_reversible"] is False
    assert "bounded search found no witness" in rep["notes"]
    code, out, err = run(capsys, "theorem", "m.json", "--search", "--budget", "0")
    assert (code, out) == (2, "") and "SearchBudgetExceeded" in err


def test_non_utf8_file_is_input_error(workdir, capsys):
    open("bad.json", "wb").write(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", "bad.json")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "UTF-8" in err


@pytest.mark.parametrize(
    "mode, key, others",
    [("twist", "total", ("target", "proj")), ("ext", "acting", ("acted", "act", "phi"))],
)
def test_group_file_missing_key_is_input_error(workdir, capsys, z2, mode, key, others):
    open("g.json", "w").write(stable_dumps({k: group_to_json(z2) for k in others}))
    code, out, err = run(capsys, "group", mode, "g.json")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and repr(key) in err


def _tiny_indexed(**replace):
    data = indexed_to_json(delta_const(terminal_category(), terminal_category()))
    data.update(replace)
    return data


def _edited(data, change, *path):
    """A copy of the JSON value ``data`` with the value v at ``path``
    replaced by change(v)."""
    data = json.loads(json.dumps(data))
    *inner, last = path
    node = data
    for key in inner:
        node = node[key]
    node[last] = change(node[last])
    return data


def _as_pairs(data, *path):
    """A copy of ``data`` with the object at ``path`` written as a list of
    [key, value] pairs, which ``dict()`` would read as the same mapping."""
    return _edited(data, lambda v: [list(kv) for kv in v.items()], *path)


_TINY = _tiny_indexed()
_Z2 = group_to_json(cyclic_group(2))
_ID2 = {"0": "0", "1": "1"}
_AB = category_to_json(discrete_category("ab"))
_FI2 = category_to_json(fi_truncated(2))
# FI_2 lists 1>2:0 ; 2>2:1,0 = 1>2:1; a second, wrong entry for that pair
_WRONG = {"first": "1>2:0", "then": "2>2:1,0", "equals": "1>2:0"}
_ID_AB = {
    "source": _AB,
    "target": _AB,
    "on_objects": {"a": "a", "b": "b"},
    "on_morphisms": {"id_a": "id_a", "id_b": "id_b"},
}
_TINY_WITNESS = {
    "pushforwards": {"id": {"on_objects": {"*": "*"}, "on_morphisms": {"id": "id"}}},
    "units": {"id": {"*": "id"}},
}
_EXT = {
    "acting": _Z2,
    "acted": _Z2,
    "act": {"0": _ID2, "1": _ID2},
    "phi": {"%s|%s" % (a, b): "0" for a in "01" for b in "01"},
}
_SURJ = {"total": _Z2, "target": _Z2, "proj": _ID2, "section": _ID2}
_MALFORMED = {
    **{
        "%s-list" % cmd: ([cmd, "in.json"], {"in.json": []})
        for cmd in ("validate", "functor", "fitype", "groth", "fibration", "cleaving", "theorem")
    },
    **{
        "%s-%s" % (cmd, name): ([cmd, "in.json"], {"in.json": payload})
        for cmd in ("groth", "theorem")
        for name, payload in (
            ("fibers-list", _tiny_indexed(fibers=list(_TINY["fibers"].values()))),
            ("arrows-list", _tiny_indexed(arrows=list(_TINY["arrows"].values()))),
            ("arrow-table-list", _tiny_indexed(arrows={"id": []})),
        )
    },
    # a string or an object where a list belongs must not be iterated
    **{
        "validate-%s" % name: (["validate", "in.json"], {"in.json": {**_AB, key: value}})
        for name, key, value in (
            ("objects-string", "objects", "ab"),
            ("objects-object", "objects", {"a": 0, "b": 0}),
            ("morphisms-string", "morphisms", ""),
            ("composition-string", "composition", ""),
            ("composition-object", "composition", {}),
        )
    },
    # a pair listed twice is malformed whichever entry comes first
    **{
        "validate-repeated-pair-%s" % where: (
            ["validate", "in.json"],
            {"in.json": {**_FI2, "composition": composition}},
        )
        for where, composition in (
            ("first", [_WRONG] + _FI2["composition"]),
            ("last", _FI2["composition"] + [_WRONG]),
        )
    },
    **{
        "group-split-%s" % name: (
            ["group", "split", "in.json"],
            {"in.json": {"total": {**_Z2, key: value}, "target": _Z2, "proj": _ID2}},
        )
        for name, key, value in (
            ("elements-string", "elements", "01"),
            ("mult-rows-string", "mult", ["01", "10"]),
            # a table of the wrong size must not be read as its prefix
            ("mult-extra-column", "mult", [["0", "1", "0"], ["1", "0", "1"]]),
            ("mult-extra-row", "mult", [["0", "1"], ["1", "0"], ["0", "1"]]),
            ("mult-short-row", "mult", [["0", "1"], ["1"]]),
        )
    },
    "theorem-witness-list": (
        ["theorem", "in.json", "--witness", "w.json"],
        {"in.json": _TINY, "w.json": []},
    ),
    "group-ext-phi-missing": (
        ["group", "ext", "in.json"],
        {"in.json": {"acting": _Z2, "acted": _Z2, "act": {"0": _ID2, "1": _ID2}, "phi": {}}},
    ),
    "group-twist-section-list": (
        ["group", "twist", "in.json"],
        {"in.json": {"total": _Z2, "target": _Z2, "proj": _ID2, "section": ["0", "1"]}},
    ),
    # a list where a mapping belongs must not be read with dict(): a list of
    # pairs, or of two-character strings, became a mapping, keeping the last
    # of two pairs with one key
    **{
        "mapping-as-list-%s" % name: (argv, {"in.json": payload})
        for argv, cases in (
            (
                ["functor", "in.json"],
                (
                    ("functor-on-objects", _as_pairs(_ID_AB, "on_objects")),
                    ("functor-on-morphisms", _as_pairs(_ID_AB, "on_morphisms")),
                    ("functor-on-objects-strings", {**_ID_AB, "on_objects": ["aa", "bb"]}),
                    (
                        "functor-on-objects-repeated-pair",
                        {**_ID_AB, "on_objects": [["a", "b"], ["a", "a"], ["b", "b"]]},
                    ),
                ),
            ),
            (
                ["groth", "in.json"],
                (
                    ("arrow-on-objects", _as_pairs(_TINY, "arrows", "id", "on_objects")),
                    ("arrow-on-morphisms", _as_pairs(_TINY, "arrows", "id", "on_morphisms")),
                    ("compositor", _as_pairs(_TINY, "compositors", "id|id")),
                    ("unitors", _as_pairs(_TINY, "unitors")),
                    ("unitor", _as_pairs(_TINY, "unitors", "*")),
                ),
            ),
            (["group", "ext", "in.json"], (("group-ext-act", _as_pairs(_EXT, "act", "1")),)),
            (
                ["group", "twist", "in.json"],
                (
                    ("group-twist-proj", _as_pairs(_SURJ, "proj")),
                    ("group-twist-section", _as_pairs(_SURJ, "section")),
                ),
            ),
        )
        for name, payload in cases
    },
    **{
        "mapping-as-list-witness-%s" % name: (
            ["theorem", "in.json", "--witness", "w.json"],
            {"in.json": _TINY, "w.json": _as_pairs(_TINY_WITNESS, *path)},
        )
        for name, path in (
            ("pushforward-on-objects", ("pushforwards", "id", "on_objects")),
            ("pushforward-on-morphisms", ("pushforwards", "id", "on_morphisms")),
            ("unit", ("units", "id")),
        )
    },
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_wrong_json_shape_is_input_error(workdir, capsys, case):
    argv, files = _MALFORMED[case]
    for name, payload in files.items():
        open(name, "w").write(stable_dumps(payload))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def _listed(data, *path):
    """A copy of the category file ``data`` with the id at ``path`` wrapped
    in a list."""
    return _edited(data, lambda v: [v], *path)


# A list where an id belongs is malformed: read with str() it became an id
# the file never names (validate exit 1), or even a consistent one (exit 0).
_NON_SCALAR_ID = {
    "objects-with-src-tgt": {
        "objects": [["x"]],
        "morphisms": [{"id": "ix", "src": ["x"], "tgt": ["x"]}],
        "identities": {"['x']": "ix"},
    },
    "object": _listed(_AB, "objects", 0),
    "morphism-id": _listed(_AB, "morphisms", 0, "id"),
    "morphism-src": _listed(_AB, "morphisms", 0, "src"),
    "morphism-tgt": _listed(_AB, "morphisms", 0, "tgt"),
    "identity": _listed(_AB, "identities", "a"),
    "composition-first": _listed(_FI2, "composition", 0, "first"),
    "composition-then": _listed(_FI2, "composition", 0, "then"),
    "composition-equals": _listed(_FI2, "composition", 0, "equals"),
    "composition-equals-object": {
        **_FI2,
        "composition": [{**_FI2["composition"][0], "equals": {"id": "1>2:0"}}]
        + _FI2["composition"][1:],
    },
}


@pytest.mark.parametrize("case", sorted(_NON_SCALAR_ID))
def test_non_scalar_id_is_input_error(workdir, capsys, case):
    open("in.json", "w").write(stable_dumps(_NON_SCALAR_ID[case]))
    code, out, err = run(capsys, "validate", "in.json")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1 and "is not an id" in err


def _band(names):
    """One object x with identity i; every other morphism is a left zero
    (f;g = f)."""
    return {
        "objects": ["x"],
        "morphisms": [{"id": m, "src": "x", "tgt": "x"} for m in ["i", *names]],
        "identities": {"x": "i"},
        "composition": [{"first": f, "then": g, "equals": f} for f in names for g in names],
    }


_BAND = _band(["1", "True", "False", "None", "2.5"])
_SCALARS = {"1": 1, "True": True, "False": False, "None": None, "2.5": 2.5}


def _entries(change, composition=_BAND["composition"]):
    """``_BAND`` with ``change(i, entry)`` for each composition entry."""
    return {**_BAND, "composition": [change(i, dict(e)) for i, e in enumerate(composition)]}


def _set(at: dict):
    """An entry change: ``at`` maps an entry's place to its new keys."""
    return lambda i, e: {**e, **at.get(i, {})}


def _scalar(i, e):
    return {k: _SCALARS[v] for k, v in e.items()}


def _without(i, e):
    return {k: v for k, v in e.items() if (i, k) not in ((1, "equals"), (4, "first"))}


_BAD_CATEGORY = 'input error: malformed category file: %s("%s")\n'
# Composition ids read from a file: a scalar is read with str(), so 1 and
# "1" are one id while 1 and true stay apart, and a list or an object is
# malformed input; a file with several faults names the first that the
# column scans first, then then, then equals would meet.
_COMPOSITION_IDS = {
    "scalars": (_entries(_scalar), 0, ""),
    "int-unknown": (_entries(_set({3: {"equals": 7}})), 1, ""),
    "first-list": (
        _entries(_set({3: {"first": ["1"]}})),
        2,
        _BAD_CATEGORY % ("TypeError", "composition first ['1'] is not an id"),
    ),
    "then-object": (
        _entries(_set({3: {"then": {"id": "None"}}})),
        2,
        _BAD_CATEGORY % ("TypeError", "composition then {'id': 'None'} is not an id"),
    ),
    "equals-null-and-list": (
        _entries(_set({2: {"equals": None}, 3: {"equals": ["1"]}})),
        2,
        _BAD_CATEGORY % ("TypeError", "composition equals ['1'] is not an id"),
    ),
    "list-equals-before-object-first": (
        _entries(_set({1: {"equals": ["1"]}, 4: {"first": {"id": "1"}}})),
        2,
        _BAD_CATEGORY % ("TypeError", "composition first {'id': '1'} is not an id"),
    ),
    "objects-and-composition-lists": (
        {**_entries(_set({0: {"then": ["1"]}})), "objects": [["x"]]},
        2,
        _BAD_CATEGORY % ("TypeError", "composition then ['1'] is not an id"),
    ),
    "missing-keys": (
        _entries(_without),
        2,
        "input error: malformed category file: KeyError('first')\n",
    ),
    "repeated-pair-as-scalars": (
        _entries(_scalar, _BAND["composition"] + [{"first": "True", "then": "1", "equals": "True"}]),
        2,
        _BAD_CATEGORY % ("ValueError", "composition lists ('True', '1') twice"),
    ),
}


@pytest.mark.parametrize("case", sorted(_COMPOSITION_IDS))
def test_composition_ids_are_read_like_every_other_id(workdir, capsys, case):
    data, exit_code, message = _COMPOSITION_IDS[case]
    open("in.json", "w").write(stable_dumps(data))
    code, out, err = run(capsys, "validate", "in.json")
    assert (code, err) == (exit_code, message)
    assert out == {
        0: "valid: 1 objects, 6 morphisms\n",
        1: "invalid: UnknownMorphism (\"composition table mentions '7'\",)\n",
        2: "",
    }[code]


def _one_object(name):
    return {
        "objects": [name],
        "morphisms": [{"id": "i", "src": name, "tgt": name}],
        "identities": {name: "i"},
    }


# A list where an id belongs is malformed even where str() of it names an id
# that the target holds: read that way, each of these files passed.
_COLLISION = {
    "functor": {
        "source": _one_object("x"),
        "target": _one_object("['x']"),
        "on_objects": {"x": ["x"]},
        "on_morphisms": {"i": "i"},
    },
    "group-split": {
        "total": _Z2,
        "target": {"elements": ["['0']"], "mult": [["['0']"]], "unit": "['0']"},
        "proj": {"0": ["0"], "1": ["0"]},
        "section": {"['0']": "0"},
    },
}
_COLLISION["group-twist"] = _COLLISION["group-split"]


@pytest.mark.parametrize("case", sorted(_COLLISION))
def test_list_id_naming_an_existing_id_is_input_error(workdir, capsys, case):
    open("in.json", "w").write(stable_dumps(_COLLISION[case]))
    code, out, err = run(capsys, *case.split("-"), "in.json")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1 and "is not an id" in err


def test_functor_entries_for_unknown_ids_fail_the_check(workdir, capsys):
    payload = {
        **_ID_AB,
        "on_objects": {**_ID_AB["on_objects"], "ghost": "a"},
        "on_morphisms": {**_ID_AB["on_morphisms"], "nonexistent": "id_a"},
    }
    open("in.json", "w").write(stable_dumps(payload))
    code, out, _ = run(capsys, "functor", "in.json")
    assert code == 1 and "NotAFunctor" in out and "'ghost'" in out


@pytest.mark.parametrize(
    "key, entry, value",
    [
        ("compositors", "ghost|ghost", {"*": "id"}),
        ("unitors", "ghost", {"*": "id"}),
        ("fibers", "ghost", _TINY["fibers"]["*"]),
    ],
)
def test_indexed_entries_for_unknown_keys_are_input_errors(workdir, capsys, key, entry, value):
    """An entry for a key that names no base object or composable pair is
    no part of the indexed category; ``groth`` once built a total category
    from such a file."""
    data = _edited(_TINY, lambda table: {**table, entry: value}, key)
    open("in.json", "w").write(stable_dumps(data))
    code, out, err = run(capsys, "groth", "in.json", "-o", "total.json")
    assert code == 2 and out == "" and "IndexedError" in err and "'ghost'" in err


def test_indexed_arrow_that_is_no_functor_is_input_error(workdir, capsys):
    """The loader hands an indexed file's arrows to ``validate_indexed``
    bare, which checks them all at once, so an arrow that is no functor
    fails there, as ``BadFiberFunctor``, an input error."""
    data = _edited(_TINY, lambda table: {**table, "id": "ghost"}, "arrows", "id", "on_morphisms")
    open("in.json", "w").write(stable_dumps(data))
    code, out, err = run(capsys, "groth", "in.json", "-o", "total.json")
    assert code == 2 and out == "" and err.startswith("input error:") and err.count("\n") == 1
    assert "BadFiberFunctor" in err and "'ghost'" in err


def _group_files(z4, z2):
    """A ``group twist`` file on Z4 → Z2 and the ``group ext`` file of the
    twisted action it gives."""
    surj = {
        "total": group_to_json(z4),
        "target": group_to_json(z2),
        "proj": {"0": "0", "1": "1", "2": "0", "3": "1"},
        "section": {"0": "0", "1": "1"},
    }
    ext = {
        "acting": group_to_json(z2),
        "acted": {"elements": ["0", "2"], "mult": [["0", "2"], ["2", "0"]], "unit": "0"},
        "act": {"0": {"0": "0", "2": "2"}, "1": {"0": "0", "2": "2"}},
        "phi": {"0|0": "0", "0|1": "0", "1|0": "0", "1|1": "2"},
    }
    return surj, ext


@pytest.mark.parametrize(
    "mode, key, entry, value",
    [
        ("ext", "act", "ghost", {"0": "0", "2": "2"}),
        ("ext", "phi", "ghost|0", "0"),
        ("twist", "section", "ghost", "0"),
    ],
)
def test_group_entries_for_unknown_elements_are_input_errors(
    workdir, capsys, z4, z2, mode, key, entry, value
):
    surj, ext = _group_files(z4, z2)
    data = ext if mode == "ext" else surj
    open("g.json", "w").write(stable_dumps(data))
    assert run(capsys, "group", mode, "g.json")[0] == 0
    open("g.json", "w").write(stable_dumps(_edited(data, lambda t: {**t, entry: value}, key)))
    code, out, err = run(capsys, "group", mode, "g.json")
    assert code == 2 and out == "" and repr(entry) in err


def _ext_file(T):
    """The ``group ext`` file of the twisted action ``T``."""
    return {
        "acting": group_to_json(T.acting),
        "acted": group_to_json(T.acted),
        "act": T.act,
        "phi": {"%s|%s" % key: value for key, value in T.phi.items()},
    }


def _law1_file():
    """Z3 acting on Z3 with 1 by inversion and 2 trivially: act(2)∘act(1)
    is no conjugate of act(1·2) = id."""
    Z3 = cyclic_group(3)
    act = {g: {h: Z3.inv[h] if g == "1" else h for h in Z3.elements} for g in Z3.elements}
    return _ext_file(TwistedAction(Z3, Z3, act, dict.fromkeys(product(Z3.elements, repeat=2), "0")))


def _law2_file():
    """The twisted action of Z8 → Z4 with phi(1, 1) changed."""
    Z8, Z4 = cyclic_group(8), cyclic_group(4)
    p = validate_group_hom(Z8, Z4, {str(i): str(i % 4) for i in range(8)})
    T = twisted_from_surjection(p, {str(i): str(i) for i in range(4)})
    phi = {**T.phi, ("1", "1"): "4" if T.phi[("1", "1")] == "0" else "0"}
    return _ext_file(TwistedAction(T.acting, T.acted, T.act, phi))


@pytest.mark.parametrize(
    "edit, counterexample",
    [
        (lambda ext: _edited(ext, lambda t: {**t, "1": {"0": "0", "2": "0"}}, "act"),
         "Law1Violation(('compositor', '1', '1', (('square', '2'),)))"),
        (lambda ext: _edited(ext, lambda t: {**t, "1": {"0": "2", "2": "0"}}, "act"),
         "NotAnAction(('not a functor', '1', (('identity not preserved', '*'),)))"),
        (lambda ext: _edited(ext, lambda t: {**t, "0|1": "2"}, "phi"), "NotAnAction(('right unit', '1', '*'))"),
        (lambda ext: _law1_file(), "Law1Violation(('compositor', '1', '2', (('square', '1'),)))"),
        (lambda ext: _law2_file(), "Law2Violation((('1', '1', '2'), '*'))"),
    ],
    ids=["no-automorphism", "no-functor", "unit", "law-1", "law-2"],
)
def test_invalid_twisted_action_names_its_first_failure(workdir, capsys, z4, z2, edit, counterexample):
    """``group ext`` on a file that is no twisted action reports the first
    failure of the indexed check, its kind and witness: the action of an
    element that is no automorphism, a unit law, law 1 or law 2."""
    open("g.json", "w").write(stable_dumps(edit(_group_files(z4, z2)[1])))
    code, out, _ = run(capsys, "--json", "group", "ext", "g.json")
    assert code == 1
    assert json.loads(out)["verdict"] == {"twisted_action_valid": False, "counterexample": counterexample}
    code, out, _ = run(capsys, "group", "ext", "g.json")
    assert (code, out) == (1, "twisted action invalid: %s\n" % counterexample)


# One object a with endomorphisms e and ia, e;e = e: with e as the identity
# ia;ia is missing, with ia as the identity the table is a monoid.  A JSON
# reader that keeps one of the two values of "a" would give either verdict.
_IDEMPOTENT = (
    '{"objects": ["a"], "morphisms": [{"id": "e", "src": "a", "tgt": "a"}, '
    '{"id": "ia", "src": "a", "tgt": "a"}], "identities": {"a": "%s", "a": "%s"}, '
    '"composition": [{"first": "e", "then": "e", "equals": "e"}]}'
)
_REPEATED_KEY = {
    "identities-e-then-ia": (["validate", "in.json"], _IDEMPOTENT % ("e", "ia")),
    "identities-ia-then-e": (["validate", "in.json"], _IDEMPOTENT % ("ia", "e")),
    "functor-on-objects": (
        ["functor", "in.json"],
        '{"source": %s, "target": %s, "on_objects": {"a": "b", "a": "a", "b": "b"}, '
        '"on_morphisms": {"id_a": "id_a", "id_b": "id_b"}}' % (json.dumps(_AB), json.dumps(_AB)),
    ),
}


@pytest.mark.parametrize("case", sorted(_REPEATED_KEY))
def test_repeated_json_key_is_input_error(workdir, capsys, case):
    argv, text = _REPEATED_KEY[case]
    open("in.json", "w").write(text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "input error: in.json: key 'a' repeated in one object\n"


def test_identity_of_unknown_object_is_rejected(workdir, capsys):
    payload = {
        "objects": ["a"],
        "morphisms": [{"id": "ia", "src": "a", "tgt": "a"}],
        "identities": {"a": "ia", "zz": "ia"},
    }
    open("in.json", "w").write(stable_dumps(payload))
    code, out, _ = run(capsys, "validate", "in.json")
    assert code == 1 and "UnknownObject" in out and "'zz'" in out
    code, out, err = run(capsys, "fitype", "in.json")
    assert code == 2 and out == "" and err.startswith("input error: UnknownObject")


@pytest.mark.parametrize("argv", [["fi", "--max", "-1"], ["blocks", "--max", "2", "--inner", "-1"]])
def test_gen_negative_size_is_input_error(workdir, capsys, argv):
    code, out, err = run(capsys, "gen", *argv, "-o", "out.json")
    assert code == 2 and out == "" and not os.path.exists("out.json")
    assert err.startswith("input error:") and err.count("\n") == 1 and argv[-2] in err


def test_gen_too_large_to_hold_is_input_error(workdir, capsys, monkeypatch):
    """A category whose cells cannot be allocated, as FI_8's 5,094,765,417
    cannot on a host of a few GB, exits 2 with one line naming the cell
    count.  The allocation of FI_3's cells is made to fail instead, so the
    real allocation is never tried."""
    cells, full = int(fi_truncated(3).coding.row[-1]), np.full

    def refuse(shape, *args, **kwargs):
        if shape == cells:
            raise MemoryError("Unable to allocate %d int32 cells" % cells)
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", refuse)
    code, out, err = run(capsys, "gen", "fi", "--max", "3", "-o", "out.json")
    assert code == 2 and out == "" and not os.path.exists("out.json")
    assert err.startswith("input error: TooManyCells") and err.count("\n") == 1
    assert "%d cells" % cells in err


def test_theorem_negative_budget_is_input_error(workdir, capsys):
    cat = category_to_json(fi_truncated(1))
    open("c.json", "w").write(stable_dumps(cat))
    run(capsys, "gen", "delta", "--x", "c.json", "--y", "c.json", "-o", "d.json")
    code, out, err = run(capsys, "theorem", "d.json", "--search", "--budget", "-5")
    assert code == 2 and out == ""
    assert err == "input error: --budget must not be negative, got -5\n"


def test_json_table_does_not_depend_on_composition_order(workdir, capsys):
    """A category read from JSON lays its table out in cell order, so the
    first composite a functor breaks is the same whatever the file order."""
    fi2 = category_to_json(fi_truncated(2))
    backwards = {**fi2, "composition": fi2["composition"][::-1]}
    assert list(category_from_json(fi2).table.items()) == list(
        category_from_json(backwards).table.items()
    )
    # sending the swap of 2 to the identity breaks f;swap for both f: 1→2
    on_morphisms = {m["id"]: m["id"] for m in fi2["morphisms"]} | {"2>2:1,0": "2>2:0,1"}
    details = []
    for source in (fi2, backwards):
        functor = {
            "source": source,
            "target": fi2,
            "on_objects": {x: x for x in fi2["objects"]},
            "on_morphisms": on_morphisms,
        }
        open("f.json", "w").write(stable_dumps(functor))
        code, out, _ = run(capsys, "--json", "functor", "f.json")
        assert code == 1
        details.append(json.loads(out)["verdict"]["detail"])
    assert details[0] == details[1]
