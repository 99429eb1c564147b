"""The scripts run end to end: ``make_corpus.py`` writes every file,
``corpus_outputs.py`` records the CLI's output on it, ``audit_corpus.py``
prints the pinned verdict table and ``scale_rungs.py`` times its smallest
rung.  Each runs as its own process, as a user would run it, in a few
seconds at most."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The ``fibr`` column runs ``is_fibration`` on every corpus projection.
AUDIT_TABLE = """\
instance                 obj   mor     fibr  fi-type   lemmas     gray  theorem
-------------------------------------------------------------------------------
delta_fi2_fi2              9    64       ok       ok       ok       ok       ok
delta_chain3_square       12    54       ok       ok       ok       ok       ok
delta_fi2_terminal         3     8       ok       ok       ok       ok       ok
gpow_trivial_3             4    24       ok       ok       ok       ok       ok
gpow_z2_3                  4    96       ok       ok       ok       ok       ok
gpow_z3_2                  3    30       ok       ok       ok       ok       ok
blocks_2_1                 7    40       ok     FAIL       ok       ok  no-wtns
slice_square_poset         9    36       ok       ok       ok       ok  no-wtns
slice_fi2                  8    57       ok     FAIL       ok       ok  no-wtns
twisted_z4_over_z2         1     4       ok       ok       ok       ok       ok
semidirect_z2_on_z3        1     6       ok       ok       ok       ok       ok
"""


def _start(script, *args, cwd):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _run(script, *args, cwd):
    proc = _start(script, *args, cwd=cwd)
    out, err = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_make_corpus_writes_every_file(tmp_path):
    out = tmp_path / "corpus"
    done = _run("make_corpus.py", out, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "corpus written to %s/\n" % out
    assert sorted(p.name for p in out.iterdir()) == [
        "blocks_2_1.json",
        "fi2.json",
        "fi3.json",
        "fi4.json",
        "fi_z2_3_direct.json",
        "fig_trivial_3.json",
        "fig_z2_3.json",
        "fig_z3_2.json",
        "slice.json",
        "square_poset.json",
    ]


def test_corpus_outputs_are_reproducible(tmp_path):
    """Two runs of ``corpus_outputs.py``, side by side, write the same tree:
    the 10 corpus files, 5 totals, 5 projections and 40 recorded runs."""
    outdirs = [tmp_path / "a", tmp_path / "b"]
    procs = [_start("corpus_outputs.py", out, cwd=tmp_path) for out in outdirs]
    trees = []
    for out, proc in zip(outdirs, procs):
        stdout, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (0, "")
        assert stdout == "40 runs recorded in %s/runs/\n" % out
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 60
    assert trees[0] == trees[1]


def test_audit_corpus_verdict_table(tmp_path):
    done = _run("audit_corpus.py", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    table, total = done.stdout.rsplit("total ", 1)
    assert table == AUDIT_TABLE
    assert total.endswith("s\n")


def test_scale_rung_reports_time_and_memory(tmp_path):
    """One sub-second rung, in its own process, prints one JSON line."""
    done = _run("scale_rungs.py", "gpow_z2_3", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    (line,) = done.stdout.splitlines()
    report = json.loads(line)
    assert sorted(report) == ["maxrss_mb", "rung", "wall_s"]
    assert report["rung"] == "gpow_z2_3"
    assert 0 < report["wall_s"] < 30 and report["maxrss_mb"] > 0
    done = _run("scale_rungs.py", "no_such_rung", cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
