"""Shared fixtures: the expensive artifacts are built once per session.

Set SPACINGCOV_SPECTRUM_CACHE to an .npz path to reuse the spectrum
interpolant between sessions (at a fixed BLAS thread count values are
identical either way; the cache only skips the quadrature).
"""

import os
import warnings

import pytest

# one BLAS thread unless the caller sets a count, set before anything loads
# numpy: the dense-oracle tests slowed more than 40x with two OpenBLAS
# threads on a 2-CPU host whose other CPU was busy.  The tests that compare
# thread counts set their own in subprocesses
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from spacingcov import autocov_series_exact
from spacingcov import montecarlo as mc
from spacingcov.spectral import SpectrumInterpolant

# share one interpolant cache between the session fixture and the CLI
# invocations exercised by the tests; the first build populates it
_CACHE = os.path.join(os.path.expanduser("~"), ".cache", "spacingcov",
                      "spectrum.npz")
os.makedirs(os.path.dirname(_CACHE), exist_ok=True)
os.environ.setdefault("SPACINGCOV_SPECTRUM_CACHE", _CACHE)


@pytest.fixture(scope="session")
def spectrum_interpolant():
    return SpectrumInterpolant.build()


@pytest.fixture(scope="session")
def exact_series(spectrum_interpolant):
    """delta I_k for k = 0..50 from the exact Fourier-inversion route."""
    return autocov_series_exact(50, spectrum_interpolant).values


# acceptance-scale Monte Carlo configuration; the seed is part of the
# shipped default so the acceptance run is deterministic
ACCEPTANCE_MC = mc.MCConfig(N=256, M=100_000, seed=1, k_max=12)


@pytest.fixture(scope="session")
def mc_acceptance_run():
    """The desk-scale run shared by the Monte Carlo acceptance criteria.

    The checkpoint lives next to the spectrum cache so repeated sessions
    resume instead of re-sampling; the statistics are identical either way.
    A checkpoint of another configuration, of another montecarlo.py (sums
    from an earlier sampler), of other values of its constants or of
    another numpy version is refused and replaced by a fresh run.
    """
    ck = os.path.join(os.path.dirname(_CACHE), "mc_acceptance.npz")
    # one worker, the faster on a 2-CPU host; the sums are byte-identical at
    # any worker count (criterion 11)
    if os.path.exists(ck):
        try:
            return mc.run(ACCEPTANCE_MC, checkpoint_path=ck, resume=True)
        except mc.CheckpointMismatch as exc:
            warnings.warn(f"refusing {ck} ({exc}); starting a fresh run")
    return mc.run(ACCEPTANCE_MC, checkpoint_path=ck)


@pytest.fixture(scope="session")
def mc_small_run():
    """A cheap run for structural (non-statistical) Monte Carlo tests."""
    return mc.run(mc.MCConfig(N=48, M=4000, seed=11, k_max=6,
                              chunk_size=500))
