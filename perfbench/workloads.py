"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/workloads.py '<spec as JSON>'

perfbench/run.py writes the spec: the workload name and its inputs,
whether to trace, a scratch directory, and the monotonic clock reading
taken just before this process was spawned (set-up time runs from there
to the first timed call).  The last line of standard output is one JSON
object: set-up and call times, peak RSS, operations attempted and failed
by the correctness checks, and a digest of the output bytes.
"""

import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPECTRUM_TOL = 1e-10         # |S(omega) - reference interpolant|
AUTOCOV_TOL = 1e-12          # |delta I_k - reference table|
SUM_RULE_RTOL = 1e-3         # truncated sum rule vs its Dyson-tail estimate
PROBE_PERIOD_S = 0.05        # one speed-probe sample per 50 ms of call time
SETUP_REF_S = 1e-3           # probe_import's time at setup_s's host speed


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def reference_interpolant(ref):
    import numpy as np
    from spacingcov import SpectrumInterpolant
    return SpectrumInterpolant(ref["edges"], [np.array(c) for c in ref["coeffs"]],
                               ref["omega_min"], ref["backend"])


def digest(*arrays):
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def end_timing(tracer):
    """Stop recording spans; return peak RSS in MB so far."""
    if tracer:
        tracer.enabled = False
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- speed probe: the host's speed while a timed call runs ------------------
#
# On a shared host the speed of one CPU swings by up to 2x within seconds,
# as other tenants load the same core.  On a 2-vCPU Xeon (2.1 GHz) VM a
# fixed 20 ms loop, repeated, took 19 to 44 ms in phases lasting from a
# fraction of a second to minutes, and the same cold spectrum build took
# 9 s to 17 s.  Work of the same kind as the call slows by the same factor
# at the same moments (kernels sampled back to back moved together,
# correlation 0.7 to 0.9; a kernel on the other CPU did not, 0.24).  So,
# while the call runs, a thread samples a small kernel that mimics the
# call's own mix of work every PROBE_PERIOD_S, timing it in thread CPU
# time, which leaves out waits for the GIL and the CPU.
# call_rel = call wall time / mean kernel time is the call's length in
# kernel units: a faster program lowers it, a slower host does not.  Set-up
# is probed the same way with probe_import; setup_s must be in seconds, so it
# is the set-up wall time at the host speed where probe_import takes
# SETUP_REF_S.  The probe costs the timed code a few per cent, the same on
# every commit.

def probe_import():
    """Pure Python, as run while modules are imported (set-up)."""
    d = {}
    for i in range(1500):
        d[str(i)] = len(repr(d.get(str(i - 1), i)))


def probe_python():
    """ODE stepping through a Python right-hand side (painleve)."""
    import numpy as np
    y = np.array([1.0, 0.0, 0.5])
    for _ in range(500):
        y = y + 1e-3 * np.array([y[1], -np.sin(y[0]), y[0] * y[1]])


def probe_numpy():
    """Gauss-Legendre rules and pointwise Chebyshev sums (autocov)."""
    import numpy as np
    from numpy.polynomial.chebyshev import chebval
    from numpy.polynomial.legendre import leggauss
    leggauss(40)
    coeffs = np.arange(1.0, 17.0)
    for x in np.linspace(-1.0, 1.0, 50):
        chebval(x, coeffs)


def probe_lapack():
    """Banded eigensolves at the CMV size N = 256 (montecarlo)."""
    import numpy as np
    from scipy.linalg import eig_banded
    bands = np.cos(np.arange(5 * 256.0)).reshape(5, 256)
    eig_banded(bands, lower=False, eigvals_only=True)


class SpeedProbe:
    """Samples `kernel` in a thread while the with-block runs."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.kernel()                  # the first call pays one-off costs
        while True:                    # at least one sample, however short
            t0 = time.thread_time()
            self.kernel()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def fields(self):
        return {"probe_s": statistics.fmean(self.samples),
                "probe_samples": len(self.samples)}


def no_setup(inputs, tracer):
    return None


# -- spectrum: cold PowerSpectrumTable.build over the seeded omega grid -----

def run_spectrum(state, inputs, spec, tracer):
    import numpy as np
    from spacingcov import PowerSpectrumTable
    omegas = np.array(inputs["omegas"])
    with SpeedProbe(probe_python) as probe:
        t0 = time.monotonic()
        table = PowerSpectrumTable.build(omegas)
        call_s = time.monotonic() - t0
    rss = end_timing(tracer)
    dev = np.abs(table.values - reference_interpolant(load_reference())(omegas))
    return {"call_s": call_s, **probe.fields(), "peak_rss_mb": rss,
            "failed": int(np.sum(~(dev <= SPECTRUM_TOL))),
            "max_dev": float(dev.max()),
            "digest": digest(table.values, table.err_estimates)}


# -- autocov_table: autocov_series_exact on the reference interpolant -------

def setup_autocov_table(inputs, tracer):
    with span(tracer, "spectral.interp_load"):
        ref = load_reference()
        return ref, reference_interpolant(ref)


def run_autocov_table(state, inputs, spec, tracer):
    import numpy as np
    from spacingcov import autocov_series_exact, sum_rule_residual
    from spacingcov.autocov import dyson_tail_estimate
    ref, interp = state
    k_max = inputs["k_max"]
    with SpeedProbe(probe_numpy) as probe:
        t0 = time.monotonic()
        series = autocov_series_exact(k_max, interp)
        call_s = time.monotonic() - t0
    rss = end_timing(tracer)
    dev = np.abs(series.values - np.array(ref["autocov"][:k_max + 1]))
    failed = int(np.sum(~(dev <= AUTOCOV_TOL)))
    out = {"call_s": call_s, **probe.fields(), "peak_rss_mb": rss,
           "max_dev": float(dev.max()), "digest": digest(series.values)}
    if k_max == ref["k_max"]:
        tail = dyson_tail_estimate(k_max)
        gap = abs(sum_rule_residual(k_max, series) - tail) / tail
        out["sum_rule_gap"] = gap
        failed += int(not gap <= SUM_RULE_RTOL)
    out["failed"] = failed
    return out


# -- mc_cmv / mc_threads: streaming CUE Monte Carlo --------------------------

def _mc_config(inputs):
    from spacingcov.montecarlo import MCConfig
    return MCConfig(N=inputs["N"], M=inputs["M"], seed=inputs["seed"],
                    k_max=inputs["k_max"], sampler="sparse_cmv",
                    chunk_size=inputs["chunk_size"])


def _estimate_fields(est):
    import numpy as np
    finite = bool(np.all(np.isfinite(est.values))
                  and np.all(np.isfinite(est.half_widths)))
    return finite, digest(est.values, est.sample_std, est.half_widths)


def run_mc_cmv(state, inputs, spec, tracer):
    from spacingcov import montecarlo
    config = _mc_config(inputs)
    with span(tracer, "montecarlo.run"), SpeedProbe(probe_lapack) as probe:
        t0 = time.monotonic()
        res = montecarlo.run(config, threads=1)
        call_s = time.monotonic() - t0
    rss = end_timing(tracer)
    finite, dig = _estimate_fields(res.estimate)
    return {"call_s": call_s, **probe.fields(), "peak_rss_mb": rss,
            "failed": int(not finite),
            "digest": dig, "values": res.estimate.values.tolist(),
            "half_widths": res.estimate.half_widths.tolist()}


def run_mc_threads(state, inputs, spec, tracer):
    from spacingcov import montecarlo
    config = _mc_config(inputs)
    ckpt = os.path.join(spec["tmp"], "mc_threads.npz")
    threads = inputs["threads"]
    with span(tracer, "montecarlo.run"), SpeedProbe(probe_lapack) as probe:
        t0 = time.monotonic()
        res = montecarlo.run(config, checkpoint_path=ckpt, threads=threads,
                             checkpoint_every=inputs["checkpoint_every"])
        call_s = time.monotonic() - t0
    with span(tracer, "montecarlo.resume"):
        t1 = time.monotonic()
        resumed = montecarlo.run(config, checkpoint_path=ckpt, resume=True,
                                 threads=threads)
        resume_s = time.monotonic() - t1
    rss = end_timing(tracer)
    finite, dig = _estimate_fields(res.estimate)
    r_finite, r_dig = _estimate_fields(resumed.estimate)
    return {"call_s": call_s, **probe.fields(), "resume_s": resume_s,
            "peak_rss_mb": rss,
            "failed": int(not finite) + int(not (r_finite and r_dig == dig)),
            "digest": dig, "values": res.estimate.values.tolist(),
            "half_widths": res.estimate.half_widths.tolist()}


WORKLOADS = {
    "spectrum": (no_setup, run_spectrum),
    "autocov_table": (setup_autocov_table, run_autocov_table),
    "mc_cmv": (no_setup, run_mc_cmv),
    "mc_threads": (no_setup, run_mc_threads),
}


def main():
    spec = json.loads(sys.argv[1])
    if spec["inputs"].get("one_cpu"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with SpeedProbe(probe_import) as probe:
        import spacingcov
        src = os.path.join(ROOT, "src", "")
        if not os.path.abspath(spacingcov.__file__).startswith(src):
            sys.exit(f"spacingcov imported from {spacingcov.__file__}, "
                     f"not {src}")
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer(spec["run_id"])
        setup, run = WORKLOADS[spec["workload"]]
        state = setup(spec["inputs"], tracer)
        setup_wall_s = time.monotonic() - spec["t_spawn"]
    out = {"setup_wall_s": setup_wall_s,
           "setup_s": setup_wall_s * SETUP_REF_S / probe.fields()["probe_s"]}
    if not spec["setup_only"]:
        if tracer:
            from tracing import install, layer_metrics
            install(tracer)
        out.update(run(state, spec["inputs"], spec, tracer))
        if tracer:
            out["layers"], out["absent"] = layer_metrics(tracer)
            tracer.write(spec["trace_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
