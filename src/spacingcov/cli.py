"""Command-line interface.

Subcommands:
  spectrum    - tabulate the spacing power spectrum on an omega grid
  autocov     - exact / leading / refined auto-covariances side by side
  montecarlo  - streaming CUE(N) run with checkpoint/resume
  figure1     - difference and ratio columns of the comparison figure

All outputs are plot-ready CSV (17 significant digits) or schema-versioned
JSON.  Every run is a pure function of its flags and seed, so repeated
invocations are byte-identical.  Exit codes: 0 success, 1 computation
failure (a machine-readable error JSON goes to stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import autocov as ac
from .spectral import PowerSpectrumTable, SpectrumConfig, SpectrumInterpolant

SCHEMA = "spacingcov/v1"


def _fmt(x) -> str:
    return f"{x:.17g}"


def _write_rows(out, fmt, kind, header, rows):
    if fmt == "json":
        doc = {"schema": SCHEMA, "kind": kind,
               "columns": header,
               "rows": [[r if isinstance(r, (str, int)) else float(r)
                         for r in row] for row in rows]}
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                str(r) if isinstance(r, (str, int)) else _fmt(r) for r in row))
        text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_config_file(path) -> dict:
    """key = value lines mirroring the long flags; '#' starts a comment."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key.replace("-", "_")] = val
    return cfg


def _given(**values) -> dict:
    """The values a flag or the config file set; the library's defaults
    stand for the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _threads(args) -> int:
    # one worker unless asked: the sampler is many short numpy calls, and a
    # second worker thread slowed it on a 2-CPU host (README)
    if args.threads is not None:
        return args.threads
    env = os.environ.get("SPACINGCOV_THREADS")
    return int(env) if env else 1


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    omega_min, omega_max = args.omega_min, args.omega_max
    if args.points < 1 or not (0.0 < omega_min <= omega_max <= np.pi + 1e-12):
        print("spectrum: empty or invalid omega grid", file=sys.stderr)
        return 2
    omegas = np.linspace(omega_min, omega_max, args.points)
    table = PowerSpectrumTable.build(
        omegas, SpectrumConfig(**_given(backend=args.backend)))
    rows = [(w, v, e, table.backend) for w, v, e in
            zip(table.omegas, table.values, table.err_estimates)]
    _write_rows(args.out, args.format, "spectrum",
                ["omega", "S", "err", "backend"], rows)
    return 0


def cmd_autocov(args) -> int:
    k_max = args.k_max
    if not 1 <= k_max <= ac.K_CAP:
        print(f"autocov: k_max must lie in [1, {ac.K_CAP}]", file=sys.stderr)
        return 2
    interp = SpectrumInterpolant.build(
        SpectrumConfig(**_given(backend=args.backend)))
    series = ac.autocov_series_exact(k_max, interp)
    rows = []
    for k, exact in enumerate(series.values):
        if k == 0:
            rows.append((k, exact, "", "", "", ""))
            continue
        dyson = ac.autocov_dyson(k)
        asym = ac.autocov_asymptotic(k)
        asym_ci = ac.autocov_asymptotic_ci(k)
        rows.append((k, exact, dyson, asym, asym_ci, exact / dyson))
    _write_rows(args.out, args.format, "autocov",
                ["k", "exact", "dyson", "asymptotic", "asymptotic_ci",
                 "exact_over_dyson"], rows)
    return 0


def cmd_montecarlo(args) -> int:
    from . import montecarlo as mc       # loaded by this command alone
    config = mc.MCConfig(**_given(N=args.n, M=args.m, seed=args.seed,
                                  k_max=args.k_max))
    result = mc.run(config, checkpoint_path=args.checkpoint,
                    resume=args.resume, threads=_threads(args))
    est = result.estimate
    rows = [(k, est.values[k], est.sample_std[k], est.half_widths[k],
             est.N, est.M, est.seed) for k in range(config.k_max + 1)]
    _write_rows(args.out, args.format, "montecarlo",
                ["k", "mean", "std", "half_width", "N", "M", "seed"], rows)
    return 0


def cmd_figure1(args) -> int:
    with open(args.mc_file) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    need = {"k", "mean", "half_width"}
    if not need.issubset(header):
        print(f"figure1: {args.mc_file} lacks columns {sorted(need)}",
              file=sys.stderr)
        return 2
    ik, im, ih = (header.index(c) for c in ("k", "mean", "half_width"))
    rows = []
    for rec in data:
        k = int(rec[ik])
        if k < 1:
            continue
        mean, half = float(rec[im]), float(rec[ih])
        dyson = ac.autocov_dyson(k)
        asym = ac.autocov_asymptotic(k)
        rows.append((k, mean - dyson, mean - asym, half,
                     mean / dyson, mean / asym))
    _write_rows(args.out, args.format, "figure1",
                ["k", "mc_minus_dyson", "mc_minus_asymptotic", "ci_half_width",
                 "mc_over_dyson", "mc_over_asymptotic"], rows)
    return 0


# ---------------------------------------------------------------------------

def build_parser(config_values=None) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spacingcov",
        description="Auto-covariances of Sine_2 level spacings: exact, "
                    "asymptotic, and Monte Carlo routes.")
    p.add_argument("--config", help="key=value file mirroring the flags; "
                                    "explicit flags win")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="tabulate the spacing power spectrum")
    sp.add_argument("--omega-min", type=float, dest="omega_min", default=0.1)
    sp.add_argument("--omega-max", type=float, dest="omega_max",
                    default=float(np.pi))
    sp.add_argument("--points", type=int, default=32)
    sp.add_argument("--backend", choices=["painleve", "fredholm"])
    sp.set_defaults(func=cmd_spectrum)

    av = sub.add_parser("autocov", help="auto-covariance table, all backends")
    av.add_argument("--k-max", type=int, dest="k_max", default=40)
    av.add_argument("--backend", choices=["painleve", "fredholm"])
    av.set_defaults(func=cmd_autocov)

    mo = sub.add_parser("montecarlo", help="streaming CUE Monte Carlo run")
    mo.add_argument("--n", type=int, help="matrix dimension N")
    mo.add_argument("--m", type=int, help="number of samples M")
    mo.add_argument("--seed", type=int)
    mo.add_argument("--k-max", type=int, dest="k_max")
    mo.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    mo.add_argument("--resume", action="store_true")
    mo.add_argument("--threads", type=int,
                    help="parallel worker cap (env SPACINGCOV_THREADS)")
    mo.set_defaults(func=cmd_montecarlo)

    f1 = sub.add_parser("figure1", help="difference/ratio comparison columns")
    f1.add_argument("--mc-file", required=True, dest="mc_file")
    f1.set_defaults(func=cmd_figure1)

    # a config file's values are the defaults of the flags they name:
    # argparse converts them as it does a flag's, and a given flag wins.
    # One file serves every subcommand, so a key may name another one's
    # flag; a key that names no flag is a usage error
    values = config_values or {}
    taken = set()
    for s in (sp, av, mo, f1):
        s.add_argument("--out", default="-", help="output path ('-' = stdout)")
        s.add_argument("--format", choices=["csv", "json"], default="csv")
        given = {a.dest: values[a.dest] for a in s._actions
                 if a.nargs != 0 and a.dest in values}
        s.set_defaults(**given)
        taken.update(given)
    unknown = sorted(set(values) - taken)
    if unknown:
        p.error(f"config: no flag takes {', '.join(unknown)}")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            values = _load_config_file(args.config)
        except (ValueError, OSError) as exc:
            print(f"config: {exc}", file=sys.stderr)
            return 2
        args = build_parser(values).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"schema": SCHEMA, "kind": "error",
                          "error": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:               # computation failures
        print(json.dumps({"schema": SCHEMA, "kind": "error",
                          "error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
