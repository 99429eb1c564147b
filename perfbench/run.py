#!/usr/bin/env python3
"""fibcat benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload {audit,build,cli} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record   # rewrite expected.json (seed 0)

Run from the root of a fibcat checkout; the library is imported from its
``src/``.  Set-up runs in separate fresh processes (three of them, and the
median is reported as ``setup_s``); the timed passes run in one more fresh
process whose peak RSS is ``peak_rss_mb``.  Every process is single
threaded.  ``wall_ref_s`` and ``setup_s`` are rescaled to a reference host
speed sampled during the timed regions (see ``speed.py``).  All files go
into a temporary directory under ``.perfbench_tmp/`` in the checkout,
removed at exit.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
job gave its expected verdict.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("audit", "build", "cli")
SETUP_REPEATS = 3
DEADLINE_S = 175.0  # the whole command must end within 180 s

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", ".slowdown")):
        return "ratio"
    if name.startswith("ioformats.bytes"):
        return "B"
    return "count"


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % args[:1])
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s did not finish in time" % args[:3]) from exc
    if proc.returncode != 0:
        raise BenchError(
            "worker %s exited %d:\n%s" % (args[:3], proc.returncode, proc.stderr[-2000:])
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker %s printed no result" % args[:3])
    return json.loads(lines[-1])


def recorded_jobs() -> dict:
    """Job names of every workload, from the recorded outcomes."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return {wl: sorted(outcomes) for wl, outcomes in json.load(fh).items()}


def bench(opts, tmp: str, deadline: float) -> dict:
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    setups = []
    for k in range(1 if opts.trace else SETUP_REPEATS):
        d = os.path.join(tmp, "setup%d" % k)
        os.mkdir(d)
        setups.append(run_worker(["setup", "--dir", d] + common, deadline))
    m = run_worker(
        ["measure", "--dir", os.path.join(tmp, "setup0"), "--seconds", str(opts.seconds),
         "--trace", str(opts.trace)] + common,
        deadline,
    )
    attempted = m["attempted"] + m.get("extra_attempted", 0)
    failures = m["failures"] + m.get("extra_failures", [])
    rss_growth = {}
    if opts.trace:
        # One fresh process per job, in job order, for its memory alone.
        for job in m["jobs"]:
            j = run_worker(["job", "--name", job, "--dir", os.path.join(tmp, "setup0")] + common,
                           deadline)
            rss_growth[job] = j["rss_growth_mb"]
            attempted += 1
            failures += j["failures"]
    for f in failures[:20]:
        print("FAILED %s" % f)
    print("%s: %d jobs attempted, %d failed, failed_ratio %.4f"
          % (opts.workload, attempted, len(failures), len(failures) / attempted))
    print("%s: %d timed passes %s s" % (opts.workload, len(m["passes"]),
                                         " ".join("%.3f" % p for p in m["passes"])))
    wall = sum(m["job_s"].values())
    wall_ref = sum(m["job_scaled_s"].values())
    print("%s: pass %.3f s of wall time, %.3f s at reference speed (host slowdown %.3f)"
          % (opts.workload, wall, wall_ref, wall / wall_ref))

    if opts.trace:
        metrics = dict(m["layers"])
        metrics["pass.wall_s"] = wall
        metrics["pass.slowdown"] = wall / wall_ref
        for wl, names in recorded_jobs().items():
            for job in names:
                mine = wl == opts.workload
                metrics["job.%s.%s.s" % (wl, job)] = m["job_scaled_s"][job] if mine else 0.0
                metrics["job.%s.%s.rss_growth_mb" % (wl, job)] = (
                    rss_growth[job] if mine else 0.0
                )
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_ref_s": wall_ref,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print("%s: setup runs %s s of wall time, %s s at reference speed" % (
            opts.workload,
            " ".join("%.3f" % s["setup_wall_s"] for s in setups),
            " ".join("%.3f" % s["setup_s"] for s in setups),
        ))
    for name in sorted(metrics):
        print("%-48s %.6g %s" % (name, metrics[name], units[name]))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in sorted(metrics)},
    }


def record(tmp: str, deadline: float) -> None:
    """Rewrite expected.json from one seed-0 pass of every workload."""
    expected = {}
    for wl in WORKLOADS:
        d = os.path.join(tmp, wl)
        os.mkdir(d)
        common = ["--workload", wl, "--seed", "0", "--dir", d]
        run_worker(["setup"] + common, deadline)
        m = run_worker(["measure", "--record", "--seconds", "0"] + common, deadline)
        if m["failures"]:
            raise BenchError("cannot record, jobs failed: %s" % m["failures"])
        expected[wl] = m["outcomes"]
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    print("wrote %s" % os.path.join(HERE, "expected.json"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fibcat benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true")
    opts = p.parse_args(argv)
    if not opts.record and opts.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "fibcat", "__init__.py")):
        print("error: no fibcat sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    try:
        if opts.record:
            record(tmp, deadline)
            return 0
        result = bench(opts, tmp, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
