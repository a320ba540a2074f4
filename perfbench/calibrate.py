"""Fixed reference work that uses no bellcomm code: a gauge of machine speed.

A fresh interpreter imports numpy, draws Philox uniforms and takes
cosines on two threads, then runs a pure-Python loop: the kinds of work
a bellcomm command does, in a fixed amount.  The benchmark runs this
between its samples, so that each sample can be scaled by how fast the
machine was running at that moment.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.random import Generator, Philox


def chunk(key: int) -> float:
    x = Generator(Philox(key=key)).random(1 << 16)
    return float(np.cos(x).sum() + np.sin(x - 1.0).sum())


def main() -> None:
    with ThreadPoolExecutor(max_workers=2) as pool:
        sum(pool.map(chunk, range(96)))
    total = 0
    for i in range(400_000):
        total += i * i


if __name__ == "__main__":
    main()
