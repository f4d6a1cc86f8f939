"""In-memory spans around the calls into each spacingcov layer.

The hooks wrap module attributes from outside the package: the public
function where a layer boundary has one, otherwise the attribute the
calling layer looks up at call time (``spectral.solve_sigma0``,
``autocov.leggauss``, ``montecarlo.eig_banded``, the
``montecarlo._SAMPLERS`` entries).  A hook whose attribute no longer
exists is recorded as absent; the metrics that depend on it read 0 and are
listed by name, and the run goes on.

A span is (name, start, end, parent, thread, run id) plus a few counts
taken at the same boundary.  Spans stay in memory and are written out
once, after the workload ends.

Times are wall-clock span durations summed over spans.  On mc_threads the
sampler spans of the two pool threads overlap and include the time a
thread waits for the CPU or the GIL, so the sampler-layer sums there can
exceed the call's wall time; compare them between commits, not with
mc_cmv.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import defaultdict

SMALL_OMEGA_MAX = 0.2          # upper edge of the small-omega regime


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.in_flight = 0
        self.in_flight_max = 0

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = {"name": name, "parent": stack[-1] if stack else None,
               "thread": threading.get_ident(), "run": self.run_id}
        with self._lock:
            idx = rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr (or owner[attr] for a dict) by a timed call."""
        is_dict = isinstance(owner, dict)
        orig = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            if before is not None:
                before(args)
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
            if after is not None:
                after(rec, args, out)
            return out

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "absent": self.absent,
                       "spans": self.spans}, fh)


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    import numpy as np
    from spacingcov import autocov, montecarlo, painleve, spectral

    def steps(rec, args, traj):
        grid = getattr(traj, "t_grid", None)
        rec["steps"] = None if grid is None else len(grid) - 1

    def points(rec, args, out):
        rec["points"] = int(np.size(args[1]))

    def regime(rec, args, out):
        omega = float(args[0])
        config = args[1] if len(args) > 1 else spectral.DEFAULT_SPECTRUM_CONFIG
        lifted = getattr(getattr(config, "solver", None), "elevation_omega", None)
        if omega < SMALL_OMEGA_MAX:
            rec["regime"] = "small"
        elif lifted is not None and omega > lifted:
            rec["regime"] = "lifted"
        else:
            rec["regime"] = "mid"

    def nodes(rec, args, out):
        rec["nodes"] = int(args[0])

    def chunk_done(rec, args, out):
        with tracer._lock:
            tracer.in_flight += 1
            tracer.in_flight_max = max(tracer.in_flight_max, tracer.in_flight)

    def fold_start(args):
        with tracer._lock:
            tracer.in_flight -= 1

    def ckpt_bytes(rec, args, out):
        rec["bytes"] = os.path.getsize(args[0])

    tracer.wrap(spectral, "solve_sigma0", "painleve.solve", after=steps)
    for meth in ("eval_log_integral", "vertical_log_integral"):
        tracer.wrap(painleve.SigmaTrajectory, meth, "painleve.dense_eval",
                    after=points)
    tracer.wrap(spectral, "power_spectrum", "spectral.point", after=regime)
    tracer.wrap(spectral.SpectrumInterpolant, "__call__",
                "spectral.interp_eval", after=points)
    tracer.wrap(autocov, "leggauss", "autocov.rule", after=nodes)
    samplers = getattr(montecarlo, "_SAMPLERS", None)
    if samplers is None:
        tracer.absent.append("montecarlo.sample")
    else:
        for key in list(samplers):
            tracer.wrap(samplers, key, "montecarlo.sample")
    tracer.wrap(montecarlo, "_cmv_matrix", "montecarlo.cmv_assembly")
    tracer.wrap(montecarlo, "eig_banded", "montecarlo.eigensolve")
    tracer.wrap(montecarlo, "_chunk_partials", "montecarlo.chunk",
                after=chunk_done)
    tracer.wrap(montecarlo, "_fold", "montecarlo.fold", before=fold_start)
    tracer.wrap(montecarlo, "_finalize", "montecarlo.finalize")
    tracer.wrap(montecarlo, "_save_checkpoint", "montecarlo.checkpoint",
                after=ckpt_bytes)


# (metric, unit, hooks it reads); the benchmark's own spans
# ("spectral.interp_load", "montecarlo.run", "montecarlo.resume") are
# always present
LAYER_METRICS = [
    ("painleve.solve_s", "s", ["painleve.solve"]),
    ("painleve.solve_calls", "count", ["painleve.solve"]),
    ("painleve.ode_steps", "count", ["painleve.solve"]),
    ("painleve.dense_eval_s", "s", ["painleve.dense_eval"]),
    ("painleve.dense_eval_points", "count", ["painleve.dense_eval"]),
    ("spectral.point_s.small", "s", ["spectral.point"]),
    ("spectral.point_s.mid", "s", ["spectral.point"]),
    ("spectral.point_s.lifted", "s", ["spectral.point"]),
    ("spectral.tail_s", "s",
     ["spectral.point", "painleve.solve", "painleve.dense_eval"]),
    ("spectral.interp_load_s", "s", []),
    ("spectral.interp_eval_s", "s", ["spectral.interp_eval"]),
    ("spectral.interp_points", "count", ["spectral.interp_eval"]),
    ("autocov.rule_s", "s", ["autocov.rule"]),
    ("autocov.rule_calls", "count", ["autocov.rule"]),
    ("autocov.rule_nodes", "count", ["autocov.rule"]),
    ("montecarlo.samples", "count", ["montecarlo.sample"]),
    ("montecarlo.sample_s.p50", "s", ["montecarlo.sample"]),
    ("montecarlo.sample_s.p99", "s", ["montecarlo.sample"]),
    ("montecarlo.cmv_assembly_s", "s", ["montecarlo.cmv_assembly"]),
    ("montecarlo.eigensolve_s", "s", ["montecarlo.eigensolve"]),
    ("montecarlo.decode_s", "s", ["montecarlo.sample", "montecarlo.cmv_assembly",
                                  "montecarlo.eigensolve"]),
    ("montecarlo.accumulate_s", "s",
     ["montecarlo.chunk", "montecarlo.sample", "montecarlo.fold"]),
    ("montecarlo.finalize_s", "s", ["montecarlo.finalize"]),
    ("montecarlo.pool_wait_s", "s", ["montecarlo.chunk", "montecarlo.fold",
                                     "montecarlo.checkpoint",
                                     "montecarlo.finalize"]),
    ("montecarlo.chunks_in_flight_max", "count",
     ["montecarlo.chunk", "montecarlo.fold"]),
    ("montecarlo.checkpoint_s", "s", ["montecarlo.checkpoint"]),
    ("montecarlo.checkpoint_bytes", "bytes", ["montecarlo.checkpoint"]),
    ("montecarlo.resume_s", "s", []),
]


def _dur(s):
    return s["end"] - s["start"]


def layer_metrics(tracer: Tracer):
    """(values, absent): every LAYER_METRICS value, and the metrics whose
    hooks could not be installed (their value reads 0)."""
    import numpy as np

    spans = tracer.spans
    by = defaultdict(list)
    kids = defaultdict(list)     # direct children, same thread by construction
    for s in spans:
        by[s["name"]].append(s)
        if s["parent"] is not None:
            kids[s["parent"]].append(s)

    def tot(name):
        return sum(_dur(s) for s in by[name])

    def under_run(name):
        return [s for s in by[name] if s["parent"] is not None
                and spans[s["parent"]]["name"] == "montecarlo.run"]

    def per_call(regime):
        ds = [_dur(s) for s in by["spectral.point"] if s.get("regime") == regime]
        return sum(ds) / len(ds) if ds else 0.0

    solves = by["painleve.solve"]
    samples = np.array([_dur(s) for s in by["montecarlo.sample"]])
    assembly = tot("montecarlo.cmv_assembly")
    eigensolve = tot("montecarlo.eigensolve")
    checkpoints = under_run("montecarlo.checkpoint")
    v = {
        "painleve.solve_s": tot("painleve.solve"),
        "painleve.solve_calls": len(solves),
        "painleve.ode_steps": sum(s.get("steps") or 0 for s in solves),
        "painleve.dense_eval_s": tot("painleve.dense_eval"),
        "painleve.dense_eval_points": sum(s["points"]
                                          for s in by["painleve.dense_eval"]),
        "spectral.point_s.small": per_call("small"),
        "spectral.point_s.mid": per_call("mid"),
        "spectral.point_s.lifted": per_call("lifted"),
        "spectral.tail_s": sum(
            _dur(s) - sum(_dur(c) for c in kids[s["id"]]
                          if c["name"] in ("painleve.solve", "painleve.dense_eval"))
            for s in by["spectral.point"]),
        "spectral.interp_load_s": tot("spectral.interp_load"),
        "spectral.interp_eval_s": tot("spectral.interp_eval"),
        "spectral.interp_points": sum(s["points"]
                                      for s in by["spectral.interp_eval"]),
        "autocov.rule_s": tot("autocov.rule"),
        "autocov.rule_calls": len(by["autocov.rule"]),
        "autocov.rule_nodes": sum(s["nodes"] for s in by["autocov.rule"]),
        "montecarlo.samples": int(samples.size),
        "montecarlo.sample_s.p50": (float(np.percentile(samples, 50))
                                    if samples.size else 0.0),
        "montecarlo.sample_s.p99": (float(np.percentile(samples, 99))
                                    if samples.size else 0.0),
        "montecarlo.cmv_assembly_s": assembly,
        "montecarlo.eigensolve_s": eigensolve,
        "montecarlo.decode_s": (float(samples.sum()) - assembly - eigensolve
                                if samples.size else 0.0),
        "montecarlo.accumulate_s": (tot("montecarlo.chunk") - float(samples.sum())
                                    + tot("montecarlo.fold")),
        "montecarlo.finalize_s": sum(_dur(s)
                                     for s in under_run("montecarlo.finalize")),
        "montecarlo.pool_wait_s": sum(
            _dur(r) - sum(_dur(c) for c in kids[r["id"]])
            for r in by["montecarlo.run"]),
        "montecarlo.chunks_in_flight_max": tracer.in_flight_max,
        "montecarlo.checkpoint_s": sum(_dur(s) for s in checkpoints),
        "montecarlo.checkpoint_bytes": checkpoints[-1]["bytes"] if checkpoints else 0,
        "montecarlo.resume_s": tot("montecarlo.resume"),
    }
    absent = [name for name, _, hooks in LAYER_METRICS
              if any(h in tracer.absent for h in hooks)]
    if any(s.get("steps") is None for s in solves):
        absent.append("painleve.ode_steps")
    for name in absent:
        v[name] = 0
    return v, absent
