#!/usr/bin/env python3
"""Write the standard JSON corpus into a directory (default: corpus/).

Every file round-trips through the validators when read back by the CLI.
"""

import os
import sys

from fibcat.cli import main as cli
from fibcat.generators import square_poset
from fibcat.ioformats import category_to_json, stable_dumps


def main(outdir="corpus"):
    os.makedirs(outdir, exist_ok=True)
    square = os.path.join(outdir, "square_poset.json")
    with open(square, "w", encoding="utf-8") as fh:
        fh.write(stable_dumps(category_to_json(square_poset())))
    jobs = [
        ["gen", "fi", "--max", "2"],
        ["gen", "fi", "--max", "3"],
        ["gen", "fi", "--max", "4"],
        ["gen", "fig", "--group", "trivial", "--max", "3"],
        ["gen", "fig", "--group", "z2", "--max", "3"],
        ["gen", "fig", "--group", "z3", "--max", "2"],
        ["gen", "direct", "--group", "z2", "--max", "3"],
        ["gen", "blocks", "--max", "2", "--inner", "1"],
        ["gen", "slice", "--base", square],
    ]
    for job in jobs:
        code = cli(["--seed-corpus", outdir, "--quiet"] + job)
        if code != 0:
            print("FAILED:", job, file=sys.stderr)
            return code
    print("corpus written to %s/" % outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
