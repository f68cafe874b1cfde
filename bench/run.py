"""kellerlab benchmark runner.

    python3 bench/run.py --workload desk|hard|search --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports kellerlab from the checkout's
`src/`, builds the workload's inputs from the seed, then runs the job list
once and reruns its short jobs in passes until S seconds are used.  One
client, one thread, closed loop: each job is an in-process
`kellerlab.cli.main([..., "--json"])` call with stdout captured, started
when the previous one returns.  Every answer goes through the correctness
gate after its pass.  A job's time is the median of its runs, each scaled
to a fixed machine speed by a reference loop timed before, during and after
the job.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
it holds the per-layer metrics, the span list of the last traced pass is
written under .bench_build/.  Lines before it give each job's verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import hardgen  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(hardgen.ROOT, ".bench_build")
SETUP_SAMPLES = 7
# Jobs of at most this share of --seconds are rerun after the first pass.
REPEAT_FRAC = 0.1
# Reported times are at the machine speed at which reference_loop() takes
# this long (its best of three).
REFERENCE_S = 0.001
# CPU seconds between samples of the machine's speed during a job.
SPEED_SAMPLE_S = 0.25

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms",
    "job_ms.p90": "ms", "check_s": "s", "bifurcation_s": "s", "sigma_s": "s",
    "search_s": "s", "surgery_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB",
}


class JobCapped(BaseException):
    """Raised by the alarm when a job reaches its wall-clock cap."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        _armed[0] = False
        raise JobCapped()


@dataclass
class Outcome:
    rc: object
    stdout: str
    error: str
    seconds: float  # wall time
    scaled: float  # wall time at the reference speed; the cap for a capped job
    capped: bool = False
    exception: str | None = None
    results: object = None


def reference_loop():
    """Fixed pure-Python work of kellerlab's kinds: Fractions, dicts, big ints."""
    acc, x, big = {}, Fraction(3, 7), 3 ** 300
    for i in range(200):
        k = (i % 13, i % 7)
        acc[k] = acc.get(k, 0) + x * i
        big = big * (i + 1_000_003) % (1 << 600)
    return acc, big


def reference_seconds():
    """Best of three timings of reference_loop(): the machine's current speed.

    On a machine whose cores are shared with other tenants (a 2-vCPU cloud
    VM here) speed drifts by 20-40 % in phases that can outlast a whole
    run.  Scaling each job's wall time by REFERENCE_S over the median of
    these timings, taken before, during and after the job, takes most of
    that drift out of the reported times.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


class SpeedSampler:
    """Times reference_seconds() every SPEED_SAMPLE_S of CPU time, from SIGPROF."""

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [reference_seconds()], 0.0
        signal.setitimer(signal.ITIMER_PROF, SPEED_SAMPLE_S, SPEED_SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.samples.append(reference_seconds())

    def scale(self, seconds):
        """Wall seconds of the sampled span, less sampling, at the reference speed."""
        return (seconds - self.spent) * REFERENCE_S / statistics.median(self.samples)


def import_kellerlab():
    """kellerlab from this checkout's src/, or None when it is not there."""
    try:
        kl = hardgen._kellerlab()
    except ImportError:
        return None
    if not os.path.abspath(kl.__file__).startswith(hardgen.SRC + os.sep):
        return None
    return kl


def run_job(kl, job) -> Outcome:
    # start every job from the same heap state, as a fresh CLI process would
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc, capped, exc = None, False, None
    with SpeedSampler() as speed:
        signal.setitimer(signal.ITIMER_REAL, job.cap)
        _armed[0] = True
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = kl.cli.main(job.argv + ["--json"])
        except JobCapped:
            capped = True
        except (Exception, SystemExit) as e:  # a job that raises fails; the run goes on
            exc = f"{type(e).__name__}: {e}"
        finally:
            t1 = perf_counter()
            _armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    scaled = job.cap if capped else speed.scale(t1 - t0)
    return Outcome(rc, out.getvalue(), err.getvalue().strip(), t1 - t0, scaled, capped, exc)


def judge(job, outcome, expected):
    """Parse the report (outside the timed region) and apply the gate."""
    if outcome.stdout:
        try:
            outcome.results = json.loads(outcome.stdout)["results"]
        except (ValueError, KeyError) as e:
            return f"unreadable report: {e}"
    return gate.verdict(job, outcome, expected)


def setup(workload, seed, every=False):
    """Import kellerlab, build every input of the workload and load it."""
    kl = import_kellerlab()
    if kl is None:
        return None, None
    work_dir = os.path.join(WORK, f"{workload}-{seed}{'-all' if every else ''}")
    jobs = workloads.build(workload, workloads.Picker(seed, every), work_dir)
    for path in sorted({p for job in jobs for p in job.inputs}):
        if path.endswith(".sys"):
            kl.expr_io.load_system_file(path).to_polynomials()
        else:
            kl.expr_io.load_map_file(path).to_poly_map()
    return kl, jobs


def setup_seconds(workload, seed):
    """Median wall time of fresh-process set-ups."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_pass(kl, jobs, tracer=None):
    """Run every job once; returns (wall seconds, outcomes)."""
    outcomes = []
    t0 = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (i, job.verb)
        outcomes.append(run_job(kl, job))
    return perf_counter() - t0, outcomes


def warm_up(kl):
    """Run every command once on a tiny bundled input: lazy imports, argparse."""
    m = os.path.join(workloads.DATA, "triangular_2.map")
    sysfile = os.path.join(workloads.DATA, "cf_triangular_2.sys")
    argvs = [["check", m], ["bifurcation", m], ["sigma", m], ["curve", m],
             ["search", sysfile, "--radius=2"], ["sl-complete", "--vector=2,3"],
             ["sl-map", "--from=2,3", "--to=0,1"], ["hurwitz", "--d=2", "--branches=2"]]
    argvs += [["transform", sub, m] + extra for sub, extra in (
        ("scale", ["--r=2"]), ("extend", ["--m=1"]), ("conjugate", ["--matrix=1,1;0,1"]),
        ("translate", ["--vector=1,1"]), ("theoremB", ["--weights=2,3"]), ("cor1", []))]
    for argv in argvs:
        run_job(kl, workloads.Job("warm-up", "surgery", argv, "warm-up"))


def percentile(values, pct):
    """Linearly interpolated percentile, continuous in the sample values."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, names, verb_seconds):
    """Per-layer metrics of one traced pass, for the names in BENCHMARK.json.

    A name is <layer>.<counter>, or attr.<verb>_s.<layer>: the share of that
    verb's job time spent inside the layer, children included.
    """

    def get(layer, key):
        return tracer.agg[layer][key] if layer in tracer.agg else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for metric in names:
        layer, _, key = metric.rpartition(".")
        if metric.startswith("attr."):
            _, verb_s, inside = metric.split(".", 2)
            verb = verb_s[: -len("_s")]
            m[metric] = ratio(tracer.by_verb[(verb, inside)], verb_seconds[verb])
        elif key == "zero_frac":  # reductions to zero: wasted S-pairs
            m[metric] = ratio(get(layer, "zero"), get(layer, "calls"))
        elif key == "exhausted_frac":
            m[metric] = ratio(get(layer, "exhausted"), get(layer, "calls"))
        elif key == "nodes_per_s":
            m[metric] = ratio(get(layer, "nodes"), get(layer, "self_s"))
        elif metric == "elim.budget_exits":
            m[metric] = tracer.budget_exits
        elif metric != "trace.overhead_frac":
            m[metric] = get(layer, key)
    return m


def by_verb(jobs, outcomes):
    sums = {v: 0.0 for v in workloads.VERBS}
    for job, out in zip(jobs, outcomes):
        sums[job.verb] += out.seconds
    return sums


def write_spans(tracer, jobs, workload, seed):
    path = os.path.join(WORK, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "job", "start", "end", "self_s"],
                   "jobs": [job.key for job in jobs], "spans": tracer.spans}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kellerlab benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        with SpeedSampler() as speed:
            t0 = perf_counter()
            kl, _ = setup(args.workload, args.seed)
            t1 = perf_counter()
        if kl is None:
            return 2
        print(f"{speed.scale(t1 - t0)!r}")
        return 0

    if import_kellerlab() is None or not os.path.exists(gate.EXPECTED_PATH):
        print(f"error: no kellerlab sources under {hardgen.SRC} or no recorded answers",
              file=sys.stderr)
        return 2
    setup_s = setup_seconds(args.workload, args.seed)
    kl, jobs = setup(args.workload, args.seed)
    expected = gate.load_expected()
    signal.signal(signal.SIGALRM, _on_alarm)
    warm_up(kl)
    gc.collect()
    gc.freeze()  # set-up objects are not rescanned before every job

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(kl)
        with open(os.path.join(hardgen.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    # every run of every job: (failure reason or None, scaled seconds or None
    # when traced, expected failure)
    runs = {job.key: [] for job in jobs}

    def judge_pass(pass_jobs, outcomes, traced=False):
        """Gate every outcome of a pass; returns the jobs that passed."""
        passed = []
        for job, out in zip(pass_jobs, outcomes):
            reason = judge(job, out, expected)
            known = reason is not None and (out.capped or reason.startswith("budget exit"))
            runs[job.key].append((reason, None if traced else out.scaled, known))
            if reason is None:
                passed.append((job, out))
        return passed

    walls, traced_walls, layer_rows = [], [], []  # scaled pass times
    t_start = perf_counter()
    if tracer is None:
        # The first pass runs every job.  Later passes rerun only the jobs of
        # at most REPEAT_FRAC of the run that passed the gate, so the short
        # jobs of `hard` also get several samples.  A failed job stays failed
        # whatever its reruns give, so it is never rerun.
        pass_jobs = jobs
        while pass_jobs:
            _, outcomes = run_pass(kl, pass_jobs)
            walls.append(sum(out.scaled for out in outcomes))
            repeat = [(job, out.seconds) for job, out in judge_pass(pass_jobs, outcomes)
                      if out.seconds <= REPEAT_FRAC * args.seconds]
            pass_jobs = [job for job, _ in repeat]
            if perf_counter() - t_start + sum(t for _, t in repeat) > args.seconds:
                break
    else:
        traced_turn = False
        while True:
            if traced_turn:
                tracer.reset()
                tracer.install()
                try:
                    wall, outcomes = run_pass(kl, jobs, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(sum(out.scaled for out in outcomes))
                layer_rows.append(layer_metrics(tracer, units, by_verb(jobs, outcomes)))
            else:
                wall, outcomes = run_pass(kl, jobs)
                walls.append(sum(out.scaled for out in outcomes))
            judge_pass(jobs, outcomes, traced_turn)
            traced_turn = not traced_turn
            if (perf_counter() - t_start + wall > args.seconds
                    and traced_walls and walls):
                break

    # a job's time is the median of its untraced runs, at the reference speed
    typical = {key: statistics.median(t for _, t, _ in r if t is not None)
               for key, r in runs.items()}
    for job in jobs:
        reasons = [reason for reason, _, _ in runs[job.key]]
        status = "ok" if not any(reasons) else "FAIL " + next(r for r in reasons if r)
        print(f"job {job.key} [{job.verb}] {typical[job.key] * 1e3:.1f} ms, median of "
              f"{len(reasons)}: {status}")
    # An operation is a job of the list, not one of its timed reruns: a job
    # fails when any run of it fails, so the counts do not depend on how many
    # passes the machine's speed allowed.
    failed = sum(any(reason for reason, _, _ in r) for r in runs.values())
    wrong = sum(any(reason and not known for reason, _, known in r) for r in runs.values())

    if tracer is not None:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        spans = write_spans(tracer, jobs, args.workload, args.seed)
        print(f"spans of the last traced pass: {spans}")
        report = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    else:
        ok_jobs = len(jobs) - failed
        wall_s = sum(typical.values())  # one pass of the job list
        typical_ms = [t * 1e3 for t in typical.values()]
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "jobs_per_s": ok_jobs / wall_s,
            "job_ms.p50": percentile(typical_ms, 50),
            "job_ms.p90": percentile(typical_ms, 90),
            "ok_frac": ok_jobs / len(jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for verb in workloads.VERBS:
            values[f"{verb}_s"] = sum(typical[job.key] for job in jobs if job.verb == verb)
        print(f"passes: {len(walls)} ({len(jobs)} jobs in the first, "
              f"{sum(len(r) > 1 for r in runs.values())} rerun), "
              f"scaled pass times (s): {' '.join(f'{w:.3f}' for w in walls)}")
        report = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
