#!/usr/bin/env python3
"""Write the corpus of ``make_corpus.py`` into OUTDIR and record what the
CLI prints on every file of it, one file per run.

From inside OUTDIR, with relative paths, ``fibcat.cli.main`` runs in
process with ``--json``:

* ``validate`` and ``fitype`` on each category file;
* ``groth -o <name>_total.json``, ``theorem`` and ``theorem --search`` on
  each indexed file;
* ``functor``, ``fibration`` and ``cleaving`` on each indexed file's
  projection, written to ``<name>_proj.json`` with ``functor_to_json``.

Each run's exit code, stdout and stderr go to ``runs/<command>_<name>.txt``.
The reports carry relative paths only, so the trees that two checkouts
write diff empty exactly when their outputs agree byte for byte:

    python scripts/corpus_outputs.py /tmp/before   # in one checkout
    python scripts/corpus_outputs.py /tmp/after    # in the other
    diff -r /tmp/before /tmp/after
"""

import contextlib
import io
import os
import sys

from make_corpus import main as make_corpus

from fibcat.cli import main as cli
from fibcat.groth import grothendieck
from fibcat.ioformats import Loader, functor_to_json, read_json, stable_dumps


def _record(label, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(["--json"] + argv)
    with open(os.path.join("runs", label + ".txt"), "w", encoding="utf-8") as fh:
        fh.write("exit %d\n--- stdout\n%s--- stderr\n%s" % (code, out.getvalue(), err.getvalue()))


def main(outdir):
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = make_corpus(".")
    if code != 0:
        return code
    files = sorted(p for p in os.listdir(".") if p.endswith(".json"))
    os.makedirs("runs", exist_ok=True)
    for path in files:
        name = path[: -len(".json")]
        if "base" not in read_json(path):
            _record("validate_" + name, ["validate", path])
            _record("fitype_" + name, ["fitype", path])
            continue
        _record("groth_" + name, ["groth", path, "-o", name + "_total.json"])
        _record("theorem_" + name, ["theorem", path])
        _record("theorem_search_" + name, ["theorem", "--search", path])
        proj = grothendieck(Loader(".").indexed(read_json(path))).proj
        with open(name + "_proj.json", "w", encoding="utf-8") as fh:
            fh.write(stable_dumps(functor_to_json(proj)))
        for command in ("functor", "fibration", "cleaving"):
            _record("%s_%s" % (command, name), [command, name + "_proj.json"])
    print("%d runs recorded in %s/runs/" % (len(os.listdir("runs")), outdir))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: corpus_outputs.py OUTDIR")
    sys.exit(main(sys.argv[1]))
