"""Machine-speed probe: a fixed computation timed next to every measurement.

On a shared machine the speed of the same code drifts by tens of percent
over tens of seconds (the same validate op took 115 ms in one minute and
215 ms a few minutes later), far more than any bound a benchmark can hold.
The probe does a fixed job with the program's kind of work: formatting and
parsing numbers as text, small numpy geometry on 3x3 cells, JSON round
trips and hashing.  It calls nothing in `catloop`, so a change to the
program cannot move it.  Benchmark times are reported at the machine speed
at which the probe takes PROBE_MS: a time t bracketed by probe runs of p1
and p2 is reported as t * 2 * PROBE_MS / (p1 + p2).  README.md gives the
measured effect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time

import numpy as np

PROBE_MS = 20.0

_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=float)


def _job() -> str:
    rng = np.random.default_rng(12345)
    records = []
    for k in range(40):
        frac = rng.random((6, 3))
        cell = np.diag(rng.uniform(3.0, 6.0, 3)) + rng.uniform(-0.3, 0.3, (3, 3))
        lines = [f"_cell_{ax} {v:.9f}" for ax, v in zip("abc", np.diag(cell))]
        lines += [f"X{i} Cu {x:.9f} {y:.9f} {z:.9f}" for i, (x, y, z) in enumerate(frac)]
        text = "\n".join(lines)
        f = np.array([[float(w) for w in ln.split()[2:]] for ln in text.splitlines()[3:]])
        shortest = []
        for i in range(6):
            for j in range(i, 6):
                d = np.linalg.norm((f[j] - f[i] + _OFFSETS) @ cell, axis=1)
                shortest.append(float(d.min()))
        records.append({"id": k, "det": float(np.linalg.det(cell)),
                        "inv": np.linalg.inv(cell).tolist(),
                        "shortest": sorted(shortest)[:5], "text": text})
    blob = json.dumps(records, indent=2, sort_keys=True)
    json.loads(blob)
    return hashlib.sha256(blob.encode()).hexdigest()


def probe_ms() -> float:
    """Wall time of one probe job, in milliseconds."""
    t0 = time.perf_counter()
    _job()
    return (time.perf_counter() - t0) * 1e3


def at_probe_speed(t: float, probe_before: float, probe_after: float) -> float:
    """`t` rescaled to the speed at which the probe takes PROBE_MS."""
    return t * 2.0 * PROBE_MS / (probe_before + probe_after)
