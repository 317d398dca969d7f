"""Time a fixed calibration kernel: a measure of this machine's speed now.

    python3 bench/calibrate.py

Prints one number, the median time in seconds of one kernel pass after a
warm-up pass. The kernel mixes the three kinds of work uwjam does: numpy
gathers and scatters on small batched arrays (the LP kernel), a
pure-Python loop (Monte Carlo) and JSON encoding and decoding (tables).
It uses numpy and the standard library only, never uwjam, so no change
to the program moves it. Changing the kernel changes the scale of every
normalised time, so it stays as it is.
"""

import json
import statistics
import time

import numpy as np

PASSES = 3


def kernel_pass(batch, order, doc):
    for _ in range(1600):
        batch[order] = batch[order] * 1.000001 - 1e-9
    total = 0
    for i in range(800_000):
        total += (i * 7) % 13
    json.loads(json.dumps(doc))
    return total


def main():
    rng = np.random.default_rng(0)
    batch = rng.random((512, 5, 16))
    order = rng.permutation(512)
    doc = [{"a": [0.1 * i, 0.2, 0.3], "v": i / 3} for i in range(30_000)]
    times = []
    for _ in range(PASSES + 1):
        start = time.perf_counter()
        kernel_pass(batch, order, doc)
        times.append(time.perf_counter() - start)
    print(statistics.median(times[1:]))


if __name__ == "__main__":
    main()
