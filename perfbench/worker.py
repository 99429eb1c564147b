"""One fresh, single-threaded benchmark process (started by ``run.py``).

    worker.py setup   --workload W --seed N --dir D
    worker.py measure --workload W --seed N --dir D --seconds S --trace T
    worker.py measure --workload W --seed 0 --dir D --seconds 0 --record
    worker.py job     --workload W --seed N --dir D --name J

``setup`` imports fibcat, writes the workload's inputs into D and reports
the seconds from process start to that point.  ``measure`` runs timed passes
over the job list until S seconds are spent, checks every job against
``expected.json`` outside the timed region, and with ``--trace 1`` makes one
untraced and one traced pass.  ``--record`` runs one pass and prints the
observed outcomes instead of checking them.  ``job`` runs the single job J
and reports how far it raised the process's peak RSS.  The result is one
JSON object on the last line of stdout.

Set-up and every job of an untraced pass are timed with a ``speed.Meter``,
which also reports the time rescaled to the reference host speed.
"""

import time

_T0 = time.perf_counter()  # process start, before fibcat is imported

import speed  # noqa: E402  (standard library only)

# Samples the host speed from process start through imports and set-up.
_STARTUP = speed.Meter()
if __name__ == "__main__":
    _STARTUP.start(t0=_T0)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fibcat.cli  # noqa: E402,F401  (loads every fibcat module)

import tracing  # noqa: E402
import workloads  # noqa: E402

# A job that runs longer than this is recorded as failed.
JOB_TIMEOUT_S = 60.0
# Fewest untraced passes of a --trace 0 run; each job time is their median.
MIN_PASSES = 2


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in fibcat eats it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(thunk, meter=None):
    """(seconds, rescaled seconds, raw result, error) of one job under the timeout.

    With a ``meter`` the seconds exclude its probes and the rescaled seconds
    are the meter's; without one both are the plain wall time.
    """
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    if meter is not None:
        meter.start()
    t = time.perf_counter()
    try:
        raw, err = thunk(), None
    except JobTimeout:
        raw, err = None, "timed out after %.0f s" % JOB_TIMEOUT_S
    except Exception as exc:  # a failing job is recorded, the pass goes on
        raw, err = None, "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        dt = time.perf_counter() - t
        signal.setitimer(signal.ITIMER_REAL, 0)
        if meter is not None:
            dt, scaled, _ = meter.stop()
        else:
            scaled = dt
    return dt, scaled, raw, err


class Pass:
    """Job times and failures of one pass; checks run between jobs, untimed."""

    def __init__(self, args, expected, meter=None):
        self.args = args
        self.expected = expected
        self.meter = meter
        self.times = {}
        self.scaled = {}
        self.failures = []
        self.outcomes = {}

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    def run(self, only=None):
        a = self.args
        for name, thunk in workloads.jobs(a.workload, a.seed, a.dir):
            if only is not None and name != only:
                continue
            dt, scaled, raw, err = run_job(thunk, self.meter)
            self.times[name] = dt
            self.scaled[name] = scaled
            if err is None:
                err = self._check(name, raw)
            if err is not None:
                self.failures.append("%s: %s" % (name, err))
            del raw
        return self

    def _check(self, name, raw):
        try:
            got = workloads.outcome(self.args.workload, raw)
        except Exception as exc:  # an unreadable result is a failed job
            return "result unreadable: %s: %s" % (type(exc).__name__, exc)
        if self.expected is None:
            self.outcomes[name] = got
            return None
        want = self.expected.get(name)
        if want is None:
            return "no expected outcome recorded"
        return workloads.mismatch(want, got, self.args.seed)


def cmd_setup(args) -> dict:
    workloads.prepare(args.workload, args.seed, args.dir)
    wall, scaled, _ = _STARTUP.stop()
    return {"setup_s": scaled, "setup_wall_s": wall}


def _expected(args):
    if args.record:
        return None
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)[args.workload]


def cmd_job(args) -> dict:
    """Run one job in this fresh process; report its peak-RSS growth."""
    signal.signal(signal.SIGALRM, _on_alarm)
    os.chdir(args.dir)
    expected = _expected(args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p = Pass(args, expected).run(only=args.name)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rss_growth_mb": (after - before) / 1024, "failures": p.failures}


def cmd_measure(args) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    os.chdir(args.dir)
    expected = _expected(args)

    # A traced run makes one untraced pass here; with the traced pass and
    # the per-job processes that follow it takes longer than --seconds.
    if args.trace or args.record:
        budget, least = 0.0, 1
    else:
        budget, least = args.seconds, MIN_PASSES
    meter = speed.Meter()
    passes = []
    start = time.perf_counter()
    while len(passes) < least or time.perf_counter() - start < budget:
        tracing.assert_unwrapped()
        passes.append(Pass(args, expected, meter).run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    names = list(passes[0].times)
    out = {
        "passes": [p.wall_s for p in passes],
        "jobs": names,
        "job_s": {n: statistics.median(p.times[n] for p in passes) for n in names},
        "job_scaled_s": {n: statistics.median(p.scaled[n] for p in passes) for n in names},
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(p.times) for p in passes),
        "failures": [f for p in passes for f in p.failures],
    }
    if args.record:
        out["outcomes"] = passes[0].outcomes
    if args.trace:
        out.update(_traced(args, expected, statistics.median(out["passes"])))
    return out


def _traced(args, expected, untraced_s: float) -> dict:
    """One traced pass, checked like the others."""
    gc.collect()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(args, expected).run()
    finally:
        tracer.restore()
    layers = tracer.metrics(traced.wall_s)
    layers["trace.overhead_ratio"] = traced.wall_s / untraced_s
    return {
        "layers": layers,
        "extra_attempted": len(traced.times),
        "extra_failures": traced.failures,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "measure", "job"])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--name", help="the job to run in job mode")
    args = p.parse_args(argv)
    args.dir = os.path.abspath(args.dir)
    if args.mode != "setup":
        _STARTUP.stop()
    result = {"setup": cmd_setup, "measure": cmd_measure, "job": cmd_job}[args.mode](args)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
