"""Deterministic splittable random streams on top of the counter-based Philox generator.

Every sampling stage draws from a stream keyed by (seed, purpose, *indices), so
nested inner simulations never share a stream with outer paths and results are
independent of how work is partitioned into batches. Streams are opened only
by paths.increment_stream (every Gaussian) and density.kde_log_domain.
"""
from __future__ import annotations

import numpy as np

# Purpose tags; disjoint streams even under a shared root seed.
OUTER = 1          # outer / plain Monte Carlo path increments
CHOLESKY = 2       # exact-sampler Gaussian draws
INNER = 3          # nested conditional simulations
BOOTSTRAP = 4      # density bootstrap resampling
CENTERING = 5      # E[ln F] estimation batches

# Paths are generated in fixed-size batches with one stream per batch, so the
# draw for global path index p never depends on how many paths were requested.
BATCH = 8192


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator on the substream keyed by (seed, *key)."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def batch_ranges(n: int, batch: int = BATCH):
    """Yield (batch_index, start, stop) covering range(n) in fixed-size batches."""
    for b, start in enumerate(range(0, n, batch)):
        yield b, start, min(start + batch, n)
