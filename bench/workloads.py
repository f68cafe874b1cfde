"""Job lists of the benchmark's three workloads.

A job is one `kellerlab` command line, run in process with `--json`.  Each
job belongs to a verb bucket (check, bifurcation, sigma, surgery, search)
that names the end-to-end metric its time is summed into, and says in one
sentence why it is in the workload.

Inputs come from the bundled corpus or are generated here from the
workload seed.  The seed only picks among options of about equal cost
(sign variants of matrices, vectors and maps, r against 1/r, neighbouring
radii, permuted branch data), so every seed measures the same amount of
work while the inputs differ.  `Picker` makes that choice; in
recording mode it returns every option, so expected answers exist for all
seeds.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

import hardgen

DATA = hardgen.DATA

VERBS = ("check", "bifurcation", "sigma", "surgery", "search")

# A generous safety cap for every job; hitting any cap fails the job.
DEFAULT_CAP_S = 60.0
# Cap of the n = 4 stretch job, which was still running after 60 s at the
# seed commit.  Hitting it counts as a failure, never as a skip.
STRETCH_CAP_S = 3.0

WORKLOAD_WHY = {
    "desk": "every CLI verb on every bundled file; jobs of at most 75 ms, so "
    "per-call overhead in cli, expr_io and small polynomial products dominates",
    "hard": "the next size up (n = 3 and 4 conjugates, deg H up to 4); each "
    "verb is dominated by one layer: products, reduce_poly or determinants",
    "search": "integer-point searches in both engine regimes, root extraction "
    "and range scan; diophantine does nearly all the work",
}


@dataclass
class Job:
    key: str  # stable identity of the job and its input; keys expected.json
    verb: str  # bucket in VERBS
    argv: list  # command line without --json
    why: str
    inputs: tuple = ()  # input files, for the size record
    cap: float = DEFAULT_CAP_S
    checks: tuple = ()  # names of independent checks in gate.CHECKS
    context: dict = field(default_factory=dict)  # data the checks need

    def __post_init__(self):
        # "--flag=value", so that values such as -1/2 are not read as options
        argv = []
        for arg in self.argv:
            if argv and argv[-1].startswith("--") and "=" not in argv[-1] \
                    and not arg.startswith("--"):
                argv[-1] += "=" + arg
            else:
                argv.append(arg)
        self.argv = argv


class Picker:
    """Chooses among equal-cost options from the workload seed.

    With `every=True` it returns all options, which is how expected answers
    are recorded for every seed.
    """

    def __init__(self, seed: int, every: bool = False):
        self.seed = seed
        self.every = every

    def choose(self, key: str, options):
        options = list(options)
        if self.every:
            return list(enumerate(options))
        idx = random.Random(f"{self.seed}:{key}").randrange(len(options))
        return [(idx, options[idx])]

    def members(self, name: str):
        """Sign vectors of a hard-tier class to build."""
        if self.every:
            return hardgen.members(name)
        return [hardgen.pick(name, self.seed)]


def _signed(values, signs):
    return tuple(s * v for s, v in zip(signs, values))


def _vec(values) -> str:
    return ",".join(str(x) for x in values)


def _sign_patterns(n):
    return list(itertools.product((1, -1), repeat=n))


PRIMES = (2, 3, 5, 7, 11, 13)

DESK_MAPS = (
    "identity_2", "identity_3", "triangular_2", "triangular_3", "triangular_4",
    "triangular_5", "triangular_6", "bif_x_xy", "bif_x_xxm1y",
)
# bifurcation and sigma on triangular_6 are multi-second budget exits: hard.
DESK_ELIM_SKIP = {"triangular_6"}


def _dim(name):
    return 2 if name.startswith("bif_") else int(name.rsplit("_", 1)[1])


def desk_jobs(picker: Picker, work_dir: str):
    """Every verb on every applicable bundled file, plus big-coefficient checks."""
    kl = hardgen._kellerlab()
    jobs = []

    def add(key, verb, argv, why, inputs=(), checks=(), context=None):
        jobs.append(Job(key, verb, argv, why, tuple(inputs), checks=tuple(checks),
                        context=context or {}))

    for name in DESK_MAPS:
        path = os.path.join(DATA, name + ".map")
        n = _dim(name)
        cubic = not name.startswith("bif_")
        k = f"desk/{name}"
        add(f"{k}/check", "check", ["check", path], "Jacobian, cubic-linear and "
            "inverse checks on a bundled map", [path])
        if name not in DESK_ELIM_SKIP:
            add(f"{k}/bifurcation", "bifurcation", ["bifurcation", path],
                "small Groebner eliminations", [path])
            for i, signs in picker.choose(f"{k}/sigma", _sign_patterns(n)):
                u = _vec(_signed(range(1, n + 1), signs))
                v = _vec(_signed((1,) * n, signs[::-1]))
                add(f"{k}/sigma#{i}", "sigma", ["sigma", path, "--eval", f"{u};{v}"],
                    "genericity polynomial and its value on a line", [path])
        for i, r in picker.choose(f"{k}/scale", ("2", "-2", "1/2", "-1/2")):
            add(f"{k}/scale#{i}", "surgery", ["transform", "scale", path, "--r", r],
                "scaling conjugation and map printing", [path])
        add(f"{k}/extend", "surgery", ["transform", "extend", path, "--m", "2"],
            "variable extension", [path])
        for i, s in picker.choose(f"{k}/conjugate", (1, -1)):
            rows = [[int(a == b) for b in range(n)] for a in range(n)]
            rows[0][n - 1] = s
            add(f"{k}/conjugate#{i}", "surgery",
                ["transform", "conjugate", path, "--matrix",
                 ";".join(_vec(r) for r in rows)],
                "linear conjugation", [path])
        for i, signs in picker.choose(f"{k}/translate", _sign_patterns(n)):
            add(f"{k}/translate#{i}", "surgery",
                ["transform", "translate", path, "--vector",
                 _vec(_signed(range(1, n + 1), signs))],
                "translation to the origin", [path])
        if cubic:
            for i, signs in picker.choose(f"{k}/theoremB", _sign_patterns(n)):
                weights = _signed(PRIMES[:n], signs)
                add(f"{k}/theoremB#{i}", "surgery",
                    ["transform", "theoremB", path, "--weights", _vec(weights)],
                    "Theorem B diagonal surgery with big integer rows", [path],
                    checks=["theoremB_rows"], context={"weights": weights})
            add(f"{k}/cor1", "surgery", ["transform", "cor1", path],
                "Corollary 1 one-variable extension", [path], checks=["cor1_rows"])
        add(f"{k}/curve-cf", "surgery", ["curve", path, "--kind", "cf"],
            "curve system F1 = ... = Fn", [path])
        add(f"{k}/curve-cfm", "surgery", ["curve", path, "--kind", "cfm", "--m", "1"],
            "curve system with F1 = 0", [path])
        for i, signs in picker.choose(f"{k}/curve-line", _sign_patterns(n)):
            u = _vec(_signed(range(n), signs))
            v = _vec((1,) + _signed((1,) * (n - 1), signs[1:]))
            add(f"{k}/curve-line#{i}", "surgery",
                ["curve", path, "--kind", "line", "--u", u, "--v", v],
                "line preimage system", [path])
        add(f"{k}/curve-sumsq", "surgery", ["curve", path, "--kind", "sumsq"],
            "Corollary 1 sum-of-squares equation", [path])

    # check on Theorem B and Corollary 1 outputs: coefficients of 40 to 80 bits
    for name in ("triangular_3", "triangular_4", "triangular_5"):
        n = _dim(name)
        form = kl.keller.as_cubic_linear(
            kl.expr_io.load_map_file(os.path.join(DATA, name + ".map")).to_poly_map()
        )
        for i, signs in picker.choose(f"desk/{name}/thmB-out", _sign_patterns(n)):
            weights = _signed(PRIMES[:n], signs)
            out = kl.transforms.theoremB_diagonal(
                form, kl.transforms.DiagonalTransform(weights)
            )
            tag = f"{name}-thmB{i}"
            outputs = [("thmB", out)]
            if n == 3:  # larger Corollary 1 outputs take 0.4 s and more to check
                outputs.append(("cor1", kl.transforms.cor1_extension(out)))
            for label, result in outputs:
                G = result.to_map()
                meta = hardgen.provenance(
                    G.components, G.variables,
                    {"name": f"{tag}-{label}", "base": name, "weights": _vec(weights)},
                )
                path = hardgen.write_map(os.path.join(work_dir, f"{tag}-{label}.map"), G, meta)
                add(f"desk/{name}/{label}-out#{i}", "check", ["check", path],
                    f"check on a {label} output with big coefficients", [path],
                    checks=["cubic_linear_integral"])

    sysfile = os.path.join(DATA, "cf_triangular_2.sys")
    for i, radius in picker.choose("desk/search", (60, 61, 62, 63)):
        add(f"desk/search#{i}", "search", ["search", sysfile, "--radius", str(radius)],
            "root-extraction search at a small radius", [sysfile], checks=["points_satisfy"])
    for n in (2, 3, 4, 5):
        for i, signs in picker.choose(f"desk/sl-complete-{n}", _sign_patterns(n)):
            add(f"desk/sl-complete-{n}#{i}", "surgery",
                ["sl-complete", "--vector", _vec(_signed(PRIMES[:n], signs))],
                "SL(n, Z) completion by bordered induction", checks=["sl_complete"])
        for i, signs in picker.choose(f"desk/sl-map-{n}", _sign_patterns(n)):
            src = _signed(PRIMES[:n], signs)
            dst = (0,) * (n - 1) + (1,)
            add(f"desk/sl-map-{n}#{i}", "surgery",
                ["sl-map", "--from", _vec(src), "--to", _vec(dst)],
                "SL(n, Z) matrix mapping one primitive vector to another",
                checks=["sl_map"])
    hurwitz = (("3", "3"), ("4", "2,2"), ("5", "3,1,1"), ("6", "2,2,2"), ("4", "1,1"))
    for d, branches in hurwitz:
        for i, perm in picker.choose(f"desk/hurwitz-{d}-{branches}",
                                     sorted(set(itertools.permutations(branches.split(","))))):
            add(f"desk/hurwitz-{d}-{branches}#{i}", "surgery",
                ["hurwitz", "--d", d, "--branches", ",".join(perm)],
                "Riemann-Hurwitz feasibility of branch data")
    return jobs


def _hard_maps(picker: Picker, work_dir: str, name: str):
    """(tag, path) of the class members to use, written to work_dir."""
    return [hardgen.write_member(name, signs, work_dir) for signs in picker.members(name)]


def hard_jobs(picker: Picker, work_dir: str):
    """The next size up: n = 3 and 4 conjugates and the deg-4 sigma."""
    jobs = []

    def add(key, verb, argv, why, path, cap=DEFAULT_CAP_S, checks=(), context=None):
        jobs.append(Job(key, verb, argv, why, (path,), cap, tuple(checks),
                        context or {}))

    keller_ok = ["keller_inverse"]
    automorphism = ["automorphism_answer"]
    for tag, path in _hard_maps(picker, work_dir, "c3"):
        add(f"hard/check/{tag}", "check", ["check", path],
            "n = 3 conjugate from the ~2 s class: formal_inverse is products", path,
            checks=keller_ok)
        add(f"hard/bifurcation/{tag}", "bifurcation", ["bifurcation", path],
            "n = 3 conjugate elimination", path, checks=automorphism)
        add(f"hard/theoremB/{tag}", "surgery",
            ["transform", "theoremB", path, "--weights", "2,3,5"],
            "Theorem B surgery on a recognised n = 3 conjugate", path,
            checks=["theoremB_rows"], context={"weights": (2, 3, 5)})
        add(f"hard/curve-sumsq/{tag}", "surgery", ["curve", path, "--kind", "sumsq"],
            "sum-of-squares curve of an n = 3 conjugate", path)
    for tag, path in _hard_maps(picker, work_dir, "n4a"):
        add(f"hard/check/{tag}", "check", ["check", path],
            "n = 4 conjugate N1 at degree cap 27", path, checks=keller_ok)
        add(f"hard/bifurcation/{tag}", "bifurcation", ["bifurcation", path],
            "n = 4 elimination on N1: reduce_poly dominates", path, checks=automorphism)
        add(f"hard/curve-cf/{tag}", "surgery", ["curve", path, "--kind", "cf"],
            "CF curve of an n = 4 conjugate", path)
    for tag, path in _hard_maps(picker, work_dir, "n4b"):
        add(f"hard/bifurcation/{tag}", "bifurcation", ["bifurcation", path],
            "n = 4 elimination on N2: reduce_poly dominates", path, checks=automorphism)
    for name in ("xy", "xxm1y"):
        for tag, path in _hard_maps(picker, work_dir, name):
            add(f"hard/bifurcation/{tag}", "bifurcation", ["bifurcation", path],
                "conjugated non-Keller exemplar with a non-empty H", path,
                checks=["h_vanishes"])
    t6 = os.path.join(DATA, "triangular_6.map")
    add("hard/bifurcation/triangular_6", "bifurcation", ["bifurcation", t6],
        "bundled n = 6 map: a Groebner budget exit after about 5 s", t6)
    for name, why in (("xxm1y", "deg H = 2"), ("xp3y", "deg H = 3"),
                      ("xp4y", "deg H = 4: poly_D determinants dominate")):
        for tag, path in _hard_maps(picker, work_dir, name):
            add(f"hard/sigma/{tag}", "sigma", ["sigma", path],
                f"sigma on a conjugated non-Keller map, {why}", path)
    for tag, path in _hard_maps(picker, work_dir, "n4s"):
        add(f"hard/bifurcation/{tag}", "bifurcation", ["bifurcation", path],
            "n = 4 stretch job that does not finish at the seed commit", path,
            cap=STRETCH_CAP_S, checks=automorphism)
        add(f"hard/transform-conjugate/{tag}", "surgery",
            ["transform", "conjugate", path, "--matrix", "1,0,0,0;0,1,0,0;0,0,1,0;1,0,0,1"],
            "conjugation of an n = 4 conjugate", path)
    for tag, path in _hard_maps(picker, work_dir, "s3"):
        cf = os.path.join(work_dir, f"hard-cf-{tag}.sys")
        _write_curve(cf, path, "cf")
        add(f"hard/search/{tag}/B25", "search", ["search", cf, "--radius", "25"],
            "range scan on the CF curve of an n = 3 conjugate", cf,
            checks=["points_satisfy"])
    return jobs


def _write_curve(out, map_path, kind):
    kl = hardgen._kellerlab()
    mf = kl.expr_io.load_map_file(map_path)
    F = mf.to_poly_map()
    if kind == "cf":
        polys = kl.diophantine.curve_CF(F).polynomials
    else:
        polys = (kl.diophantine.cor1_sum_of_squares(F),)
    meta = {"name": f"{mf.metadata['name']}-{kind}", "base": mf.metadata["name"],
            "matrix": mf.metadata.get("matrix", "identity")}
    return hardgen.write_system(out, list(polys), meta)


def search_jobs(picker: Picker, work_dir: str):
    """Both search regimes, plus the cheap pipeline that yields their curves."""
    jobs = []

    def add(key, verb, argv, why, path, checks=()):
        jobs.append(Job(key, verb, argv, why, (path,), checks=tuple(checks)))

    kl = hardgen._kellerlab()
    base = kl.expr_io.load_map_file(os.path.join(DATA, "triangular_2.map")).to_poly_map()
    (curve,) = kl.diophantine.curve_CF(base).polynomials
    for i, signs in picker.choose("search/cf-t2", _sign_patterns(2)):
        xs = [kl.Polynomial.variable(curve.variables, v) for v in curve.variables]
        variant = kl.polyring.substitute(
            curve, {v: s * x for v, s, x in zip(curve.variables, signs, xs)}, curve.variables
        )
        path = hardgen.write_system(
            os.path.join(work_dir, f"cf-t2-{i}.sys"), [variant],
            {"name": f"cf-triangular-2-{hardgen.sign_tag(signs)}",
             "base": "triangular_2", "signs": _vec(signs)},
        )
        for radius in (1000, 1500):
            add(f"search/extract/cf-t2#{i}/B{radius}", "search",
                ["search", path, "--radius", str(radius)],
                "root extraction: one scanned variable, the other by trial division",
                path, checks=["points_satisfy"])
    for tag, path in _hard_maps(picker, work_dir, "s3"):
        add(f"search/check/{tag}", "check", ["check", path],
            "certify that the curves come from a Keller map", path,
            checks=["keller_inverse"])
        add(f"search/bifurcation/{tag}", "bifurcation", ["bifurcation", path],
            "certify an empty bifurcation set", path, checks=["automorphism_answer"])
        add(f"search/sigma/{tag}", "sigma", ["sigma", path],
            "certify that every line is generic", path)
        for kind in ("cf", "sumsq"):
            add(f"search/curve-{kind}/{tag}", "surgery", ["curve", path, "--kind", kind],
                "build the curve system that is searched", path)
        cf = _write_curve(os.path.join(work_dir, f"cf-{tag}.sys"), path, "cf")
        sumsq = _write_curve(os.path.join(work_dir, f"sumsq-{tag}.sys"), path, "sumsq")
        add(f"search/scan/cf/{tag}", "search", ["search", cf, "--radius", "40"],
            "range scan: two equations in three variables", cf, checks=["points_satisfy"])
        add(f"search/scan/sumsq/{tag}", "search", ["search", sumsq, "--radius", "40"],
            "range scan: one equation, ~(2B+1)^2 nodes, _specialize dominates",
            sumsq, checks=["points_satisfy"])
        add(f"search/budget/sumsq/{tag}", "search",
            ["search", sumsq, "--radius", "200", "--budget", "10000"],
            "a run that stops on its node budget and reports exhausted: no",
            sumsq, checks=["points_satisfy"])
    return jobs


BUILDERS = {"desk": desk_jobs, "hard": hard_jobs, "search": search_jobs}


def build(workload: str, picker: Picker, work_dir: str):
    os.makedirs(work_dir, exist_ok=True)
    jobs = BUILDERS[workload](picker, work_dir)
    if len({job.key for job in jobs}) != len(jobs):
        raise ValueError(f"duplicate job keys in workload {workload}")
    return jobs
