"""Regenerate perfbench/reference.json from the package source.

The reference holds the 16-node spectrum interpolant from a cold build
(no spectrum cache is read or written) and the exact delta I_0..delta I_400
table computed from it.  The cold build takes several minutes on one core.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
K_MAX = 400


def main():
    os.environ.pop("SPACINGCOV_SPECTRUM_CACHE", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spacingcov
    from spacingcov import autocov_series_exact
    from spacingcov.spectral import SpectrumInterpolant

    t0 = time.perf_counter()
    interp = SpectrumInterpolant.build(nodes=16, cache_path=None)
    t1 = time.perf_counter()
    table = autocov_series_exact(K_MAX, interp)
    t2 = time.perf_counter()
    ref = {
        "package_version": spacingcov.__version__,
        "nodes": 16,
        "omega_min": interp.omega_min,
        "backend": interp.backend,
        "edges": [float(e) for e in interp.edges],
        "coeffs": [[float(c) for c in panel] for panel in interp.coeffs],
        "k_max": K_MAX,
        "autocov": [float(v) for v in table.values],
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"cold interpolant build {t1 - t0:.1f} s, "
          f"autocov table {t2 - t1:.1f} s")


if __name__ == "__main__":
    main()
