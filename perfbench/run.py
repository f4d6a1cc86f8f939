"""Benchmark of spacingcov, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; the package is imported from
./src.  Every repetition runs in a fresh interpreter (perfbench/
workloads.py), so no in-process cache, lru_cache or peak RSS carries over,
with BLAS pinned to one thread and the spectrum cache and checkpoints
pointed at a scratch directory under ./.perfbench that is removed at exit.

Workloads (the seed makes every input; same seed, same inputs):
  spectrum       cold PowerSpectrumTable.build over 8 omegas, each drawn
                 from a narrow band: 2 small, 5 mid, 1 lifted; the exact
                 route (painleve ODE stepping and dense evaluation, spectral
                 tail quadrature); no interpolant, no Monte Carlo
  autocov_table  autocov_series_exact(400) on the reference interpolant;
                 autocov quadrature and interpolant evaluation, no painleve
                 (the seed does not change this workload's input)
  mc_cmv         montecarlo.run, N=256, M=2000, sparse_cmv, threads=1, no
                 checkpoint: the single-thread sampler
  mc_threads     the same sampler, M=1200 in 40 chunks on a 2-thread pool,
                 checkpointed, then resumed from the completed checkpoint:
                 pool, futures, checkpoint I/O, retained memory.  The child
                 is pinned to one CPU: on a shared 2-CPU machine, running it
                 on both CPUs made its wall time swing between 17 s and 36 s
                 from run to run (GIL hand-offs between the pool threads)

With --trace 0 a run repeats its workload until --seconds have passed (at
least once) and reports medians of the end-to-end metrics:
  setup_s      interpreter start, import and interpolant load, up to the
               first timed call, at a fixed host speed set by a probe kernel
               (workloads.SETUP_REF_S); median over every child of the run,
               including set-up-only ones
  call_rel     the workload's timed call, the table build (spectrum_s),
               the autocov table (autocov_s) or the first montecarlo.run
               (M / its wall time is mc_samples_per_s), in units of a
               speed-probe kernel sampled while the call runs: its wall
               time divided by the kernel's mean time (workloads.SpeedProbe
               says why); the text lines give the wall times as well
  peak_rss_mb  peak resident memory of the workload's own process
With --trace 1 a run makes one untraced and one traced repetition and
reports the per-layer metrics of tracing.LAYER_METRICS, plus
trace.overhead_s (traced minus untraced call time, both at the untraced
call's host speed).  Outputs are checked against perfbench/reference.json;
repetitions of one run, traced or not, must give byte-identical outputs.
An operation is one omega point, one lag row or one Monte Carlo run;
error_rate is failed / attempted.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  In a directory without
src/spacingcov the benchmark exits with code 2 and prints no result.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import load_reference  # noqa: E402

WORKLOADS = ("spectrum", "autocov_table", "mc_cmv", "mc_threads")
SETUP_SAMPLES = 3            # set-up times per run, the workload's own included
HARD_LIMIT_S = 170.0         # a run ends within this, whatever --seconds says
BAND = 0.01                  # width of each seeded omega band
SPECTRUM_BANDS = (0.12, 0.17,                    # small: closed form is < 0.05
                  0.60, 1.00, 1.40, 1.80, 2.20,  # mid
                  3.00)                          # lifted: > elevation_omega 2.9
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CALL_NAMES = {"spectrum": "spectrum_s", "autocov_table": "autocov_s",
              "mc_cmv": "mc_call_s", "mc_threads": "mc_call_s"}


def make_inputs(workload, seed, toy=False):
    """Inputs of one workload; toy sizes serve the smoke mode only."""
    if workload == "spectrum":
        rng = random.Random(seed)
        lows = (0.60, 1.20) if toy else SPECTRUM_BANDS
        return {"omegas": [lo + BAND * rng.random() for lo in lows]}
    if workload == "autocov_table":
        return {"k_max": 20 if toy else 400}
    mc = {"N": 32 if toy else 256, "seed": seed, "k_max": 12}
    if workload == "mc_cmv":
        mc.update(M=40 if toy else 2000, chunk_size=20 if toy else 500,
                  threads=1)
    else:
        mc.update(M=40 if toy else 1200, chunk_size=5 if toy else 30,
                  threads=2, checkpoint_every=10, one_cpu=True)
    return mc


def operations(workload, inputs):
    if workload == "spectrum":
        return len(inputs["omegas"])
    if workload == "autocov_table":
        return inputs["k_max"] + 1
    return 1 if workload == "mc_cmv" else 2      # run, and resume


def provenance():
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "spacingcov")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha, "src_sha256": h.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "thread_env_children": {k: "1" for k in THREAD_ENV},
            "python": sys.version.split()[0],
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


class Runner:
    """Spawns the repetitions of one benchmark run and keeps their results."""

    def __init__(self, workload, seed, toy):
        self.workload = workload
        self.seed = seed
        self.inputs = make_inputs(workload, seed, toy)
        self.ops = operations(workload, self.inputs)
        self.start = time.monotonic()
        self.tmp = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
            if p)
        # never read or written: only a stale cache could be found elsewhere
        self.env["SPACINGCOV_SPECTRUM_CACHE"] = os.path.join(self.tmp, "none.npz")
        self.n_children = 0

    def child(self, trace=False, setup_only=False):
        """One fresh-interpreter repetition: its result dict, or None."""
        self.n_children += 1
        run_id = f"{self.workload}-seed{self.seed}-{self.n_children}"
        tmp = os.path.join(self.tmp, str(self.n_children))
        os.makedirs(tmp)
        spec = {"workload": self.workload, "inputs": self.inputs,
                "trace": trace, "setup_only": setup_only, "tmp": tmp,
                "run_id": run_id,
                "trace_path": os.path.join(ROOT, ".perfbench",
                                           f"trace-{run_id}.json")}
        timeout = self.start + HARD_LIMIT_S - time.monotonic()
        if timeout <= 0:
            return None
        t_spawn = spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "workloads.py"),
                 json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{run_id}: timed out", file=sys.stderr)
            return None
        wall = time.monotonic() - t_spawn
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{run_id}: exit code {proc.returncode}", file=sys.stderr)
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["wall_s"] = wall
        return out

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def measure(runner, seconds):
    """--trace 0: repeat the workload for `seconds`, at least once.

    The set-up-only children come first; the first of them also writes the
    package's bytecode caches, which the median of SETUP_SAMPLES absorbs.
    """
    setups = [runner.child(setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    deadline = time.monotonic() + seconds
    reps = []
    while True:
        reps.append(runner.child())
        walls = [r["wall_s"] for r in reps if r]
        now = time.monotonic()
        if not walls or now + statistics.median(walls) > min(
                deadline, runner.start + HARD_LIMIT_S):
            break
    return setups, reps


def summarize(runner, setups, reps, trace):
    good = [r for r in reps if r]
    attempted = runner.ops * len(reps)
    failed = sum(runner.ops if r is None else r["failed"] for r in reps)
    if len({r["digest"] for r in good}) > 1:
        failed = attempted                 # same inputs, different output bytes
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not good or (trace and None in reps):
        return result, None
    if trace:
        plain, traced = reps
        metrics = {name: {"value": traced["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        # the traced call at the untraced call's host speed, minus the latter
        metrics["trace.overhead_s"] = {
            "value": traced["call_s"] * plain["probe_s"] / traced["probe_s"]
            - plain["call_s"], "unit": "s"}
        return result, metrics
    setup = [r["setup_s"] for r in setups + reps if r]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "call_rel": {"value": statistics.median(r["call_s"] / r["probe_s"]
                                                for r in good),
                     "unit": "probe"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in good),
                        "unit": "MB"},
    }
    return result, metrics


def report(runner, reps, result, metrics, trace):
    """Human-readable lines; the JSON result line follows them."""
    w = runner.workload
    print(f"workload {w} seed {runner.seed} inputs {json.dumps(runner.inputs)}")
    for i, r in enumerate(reps, 1):
        if r is None:
            print(f"  rep {i}: failed to run")
            continue
        extra = {k: r[k] for k in ("probe_samples", "max_dev", "sum_rule_gap",
                                    "resume_s")
                 if k in r}
        print(f"  rep {i}{' traced' if trace and i == 2 else ''}: "
              f"call_s {r['call_s']:.4f} probe_ms {1e3 * r['probe_s']:.4f} "
              f"setup_wall_s {r['setup_wall_s']:.4f} setup_s {r['setup_s']:.4f} "
              f"peak_rss_mb {r['peak_rss_mb']:.1f} failed {r['failed']} "
              f"{json.dumps(extra)}")
    good = [r for r in reps if r]
    if good and "values" in good[0]:
        exact = load_reference()["autocov"]
        v, hw = good[0]["values"], good[0]["half_widths"]
        zs = " ".join(f"{k}:{(v[k] - exact[k]) / hw[k]:+.2f}"
                      for k in range(len(v)))
        print(f"  z = (MC - exact) / half-width per lag (not a gate): {zs}")
    if metrics and not trace:
        call = statistics.median(r["call_s"] for r in good)
        rows = [("setup_s", metrics["setup_s"]["value"], "s"),
                (CALL_NAMES[w], call, "s")]
        if w.startswith("mc_"):
            rows.append(("mc_samples_per_s", runner.inputs["M"] / call,
                         "samples/s"))
        rows.append(("call_rel", metrics["call_rel"]["value"], "probe"))
        rows.append(("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB"))
        for name, value, unit in rows:
            print(f"  {name:<18} {value:12.4f} {unit}")
    elif metrics:
        absent = sorted({a for r in good for a in r.get("absent", ())})
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:14.6g} {m['unit']}")
        print(f"  absent (hook not found, reads 0): {absent or 'none'}")
    print(f"  {'error_rate':<18} {result['failed'] / result['attempted']:12.4f} "
          f"ratio ({result['failed']}/{result['attempted']})")


def run_one(workload, seed, seconds, trace, toy=False):
    runner = Runner(workload, seed, toy)
    try:
        if trace:
            setups, reps = [], [runner.child(), runner.child(trace=True)]
        else:
            setups, reps = measure(runner, seconds)
        result, metrics = summarize(runner, setups, reps, trace)
        report(runner, reps, result, metrics, trace)
    finally:
        runner.close()
    if metrics is None:
        return None
    return dict(result, metrics=metrics)


def smoke():
    """Every workload at toy size, both modes: every metric named in
    BENCHMARK.json must come back with its unit, and outputs must check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_one(workload, 1, 0, trace, toy=True)
            if res is None or not res["correct"]:
                problems.append(f"{workload} trace {trace}: not correct")
                continue
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace {trace}: {m['name']}")
    for p in problems:
        print(f"smoke: missing or wrong {p}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok",
                      "problems": problems}))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, every workload, both modes")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spacingcov", "__init__.py")):
        print("no src/spacingcov here: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if not (args.smoke or args.workload):
        ap.error("--workload or --smoke is required")
    print("provenance " + json.dumps(provenance()))
    if args.smoke:
        return smoke()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_one(name, args.seed, args.seconds, args.trace)
        if res is None:
            print(f"{name}: no repetition ran to completion", file=sys.stderr)
            return 1
        results[name] = res
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
