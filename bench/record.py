"""Record the expected answers and the job manifest.

    python3 bench/record.py [--sympy-seconds 60]

Runs every job of every workload for every seed option once and writes
  bench/expected.json  exit code, digest of the `--json` results and error
                       text per job key; the correctness gate compares
                       against it.  A job that hits its cap gets no entry.
  bench/manifest.json  per workload and job: why it is there, its cap, its
                       input sizes (variables, terms, degree, coefficient
                       bits) and recorded time; the default seed's picks;
                       and the outcome of a one-time cross-check of the hard
                       tier's `bifurcation` answers for the default seed
                       against sympy's Groebner elimination (sympy is
                       optional).
Run it only at a commit whose answers are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import hardgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
MANIFEST_PATH = os.path.join(HERE, "manifest.json")


def sizes(kl, path):
    """Input size of a .map or .sys file."""
    if path.endswith(".sys"):
        polys = kl.expr_io.load_system_file(path).to_polynomials()
    else:
        polys = list(kl.expr_io.load_map_file(path).to_poly_map().components)
    meta = hardgen.provenance(polys, polys[0].variables, {})
    return {k: int(v) for k, v in meta.items()}


def _relative(arg):
    return os.path.relpath(arg, hardgen.ROOT) if os.path.isabs(arg) else arg


def sympy_crosscheck(kl, job, results, seconds):
    """'agree', 'differ', 'timeout' or 'unavailable' for a bifurcation answer."""
    try:
        import sympy
    except ImportError:
        return "unavailable"
    F = kl.expr_io.load_map_file(job.inputs[0])
    xs = sympy.symbols(F.variables)
    ys = sympy.symbols([f"Y{k}" for k in range(1, len(xs) + 1)])
    T = sympy.Symbol("T")
    comps = [sympy.sympify(c.replace("^", "**"), dict(zip(F.variables, xs)))
             for c in F.components]
    names = {str(s): s for s in (*ys, T)}

    def alarm(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        for i, xi in enumerate(xs, start=1):
            gone = [x for x in xs if x != xi]
            G = sympy.groebner([c - y for c, y in zip(comps, ys)], *gone, *ys, xi,
                               order="lex")
            elim = [g for g in G.exprs if not (g.free_symbols & set(gone))]
            if len(elim) != 1:
                return "differ"
            g = sympy.sqf_part(sympy.Poly(elim[0].subs(xi, T), *ys, T))
            h = sympy.Poly(sympy.sympify(results[f"h{i}"].replace("^", "**"), names),
                           *ys, T)
            q, r = sympy.div(g, h)
            if not r.is_zero or q.total_degree() != 0:
                return "differ"
        return "agree"
    except TimeoutError:
        return "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def dumps(obj, depth) -> str:
    """JSON that breaks lines only in the top `depth` levels: one record a line."""
    if depth == 0 or not isinstance(obj, (dict, list)):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {dumps(v, depth - 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n}"
    return "[\n" + ",\n".join(dumps(v, depth - 1) for v in obj) + "\n]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record expected answers and the manifest")
    ap.add_argument("--sympy-seconds", type=float, default=60.0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, run._on_alarm)
    expected, manifest = {}, {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in sorted(workloads.BUILDERS):
        kl, jobs = run.setup(workload, DEFAULT_SEED, every=True)
        _, picked = run.setup(workload, DEFAULT_SEED)
        picked = {job.key for job in picked}
        entries = []
        for job in jobs:
            out = run.run_job(kl, job)
            if out.stdout:
                out.results = json.loads(out.stdout)["results"]
            if not out.capped and out.exception is None:
                expected[job.key] = gate.answer(out)
            entry = {
                "key": job.key, "verb": job.verb, "why": job.why, "cap_s": job.cap,
                "argv": [_relative(a) for a in job.argv],
                "inputs": [sizes(kl, p) for p in job.inputs],
                "recorded_ms": round(out.seconds * 1e3, 1),
                "recorded_outcome": "cap" if out.capped else (out.exception or out.rc),
                "default_seed_pick": job.key in picked,
                "checks": list(job.checks),
            }
            if (workload == "hard" and job.verb == "bifurcation" and out.rc == 0
                    and job.key in picked):
                entry["sympy_crosscheck"] = sympy_crosscheck(kl, job, out.results,
                                                             args.sympy_seconds)
            entries.append(entry)
            print(f"{job.key}: {entry['recorded_outcome']} in {entry['recorded_ms']} ms"
                  f" {entry.get('sympy_crosscheck', '')}", flush=True)
        manifest["workloads"][workload] = {"why": workloads.WORKLOAD_WHY[workload],
                                           "jobs": entries}
    manifest["hard_classes"] = {
        name: {"base": base, "matrix": hardgen.matrix_text(A),
               "default_seed_signs": hardgen.sign_tag(hardgen.pick(name, DEFAULT_SEED))}
        for name, (base, A) in hardgen.CLASSES.items()
    }
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(dumps({"recorded": time.strftime("%Y-%m-%d"),
                        "jobs": dict(sorted(expected.items()))}, 2) + "\n")
    with open(MANIFEST_PATH, "w", encoding="utf-8") as fh:
        fh.write(dumps(manifest, 4) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
