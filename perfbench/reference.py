"""Fixed reference work that measures the machine's speed, not expfbm's.

    python3 perfbench/reference.py

run.py times one fresh process of this file before every expfbm command
and scales the end-to-end times by REF_S / (its mean time in the round).
On a shared machine the speed of the same code drifts by tens of percent
over minutes; the reference slows with it, so the ratio keeps the drift out
of the figures while any change to expfbm still shows in full.

The work is a small mix of what an expfbm command does: start Python and
import numpy, multiply a lower-triangular kernel into Gaussian increments
(BLAS), take cumulative sums and exponentials over the grid, write float
rows as CSV text, compress an array, and run an interpreted loop. It leaves
scipy out: its import time varies more from process to process than the
compute does, and made the reference a noisier yardstick. Nothing here
imports or reads expfbm, so no change to the package can move this time.
It prints one checksum line.
"""
from __future__ import annotations

import csv
import io

import numpy as np

GRID = 256
COLUMNS = 2500
BATCHES = 16
CSV_ROWS = 60_000
LOOP = 600_000


def main():
    rng = np.random.default_rng(12345)
    kernel = np.tril(rng.standard_normal((GRID, GRID)))
    total = 0.0
    for _ in range(BATCHES):
        x = kernel @ rng.standard_normal((GRID, COLUMNS))
        total += float(np.exp(np.cumsum(x, axis=0) * 1e-3).sum())
    text = io.StringIO()
    writer = csv.writer(text)
    for row in x[:3].T.tolist() * (CSV_ROWS // COLUMNS):
        writer.writerow(row)
    packed = io.BytesIO()
    np.savez_compressed(packed, x=x[:, :1000])
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    print(f"{total:.6e} {len(text.getvalue())} {len(packed.getvalue())} {acc}")


if __name__ == "__main__":
    main()
