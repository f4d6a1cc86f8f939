"""Unfolded CUE spacing histogram against the exact spacing density.

Samples CUE(N) spectra with the sparse five-diagonal construction,
unfolds each spacing by its per-position ensemble mean, and prints a bin
table next to the exact density, read in closed form from the sigma
Painleve V solution at zeta = 1 that also gives the gap probability.

Run:  python3 demos/spacing_histogram.py [--n 64] [--m 2000] [--seed 0]
"""

import argparse

import numpy as np

from spacingcov.montecarlo import CueBatch, unfold
from spacingcov.spectral import spacing_distribution


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--m", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=14)
    args = ap.parse_args()

    rng = np.random.Generator(np.random.Philox(args.seed))
    batch = CueBatch.generate(args.n, args.m, rng)
    u = unfold(batch, batch.raw_spacings.mean(axis=0))
    # drop the edge positions so the bulk statistics dominate
    lo, hi = args.n // 4, 3 * args.n // 4
    s = u.unfolded_spacings[:, lo:hi].ravel()

    hist, edges = np.histogram(s, bins=args.bins, range=(0.0, 3.0),
                               density=True)
    frac = float(np.mean(s < 3.0))
    print(f"{'s':>6} {'histogram':>12} {'exact P(s)':>12}")
    for h, a, b in zip(hist, edges[:-1], edges[1:]):
        c = 0.5 * (a + b)
        print(f"{c:6.3f} {h * frac:12.5f} {spacing_distribution(c):12.5f}")


if __name__ == "__main__":
    main()
