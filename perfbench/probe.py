"""Host-speed probes: two fixed kernels timed next to every operation.

On a shared host the same code runs at very different speeds from one
minute to the next.  On the 2-vCPU host the bounds were tuned on, one
``online`` pass took anywhere from 5.7 s to 10.3 s on identical inputs
within ten minutes; raw times put every run-to-run spread above any
bound a change could be held to.

So each worker times two kernels right before every operation, and
times are scaled by ``REFERENCE_S / probe``: they are reported in
seconds at the host speed at which the probe takes ``REFERENCE_S``.
Both kernels are independent of the program, so no change under
``src/`` can speed them up.  There are two because the host's slow
spells do not slow all code alike: in one slow spell the interpreter
loop of a convex-hull scan (what ``decide`` spends most of its time in)
slowed 1.8x while numpy-heavy stack-distance jobs and the ``MIXED``
kernel slowed 1.3x.

- ``MIXED``: plain-Python dict updates and small numpy sorts, like the
  program's numpy-heavy layers (trace synthesis, stack distances).
- ``INTERP``: a monotone-chain lower-hull scan over 3000 points in
  plain Python, like the program's interpreter-bound layers (hull
  priming, partitioning).

Both are timed in process CPU time, as the operations are (run.py).
"""

from __future__ import annotations

import time

import numpy as np

MIXED, INTERP = 0, 1

#: About each kernel's CPU time on the host the bounds were tuned on,
#: in a fast spell; reported times are seconds at the speed it implies.
REFERENCE_S = (0.0012, 0.0014)

_DATA = np.random.default_rng(0).random(1 << 13)
_XS = sorted(np.random.default_rng(5).random(3000).tolist())
_YS = np.random.default_rng(6).random(3000).tolist()


def _mixed() -> None:
    counts: dict[int, int] = {}
    for i in range(2500):
        counts[i % 61] = counts.get(i % 61, 0) + i
    order = np.argsort(_DATA, kind="stable")
    np.searchsorted(_DATA[order], _DATA[:2048])


def _interp() -> None:
    hull: list[tuple[float, float]] = []
    for x, y in zip(_XS, _YS):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) > 0:
                break
            hull.pop()
        hull.append((x, y))


def probe() -> tuple[float, float]:
    """CPU seconds each kernel takes right now, indexed MIXED and INTERP."""
    out = []
    for kernel in (_mixed, _interp):
        t0 = time.process_time()
        kernel()
        out.append(time.process_time() - t0)
    return out[MIXED], out[INTERP]
