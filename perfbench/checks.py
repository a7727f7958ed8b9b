"""Correctness gate applied to every benchmark run's output files.

The CLI's exit code (checked by the caller) already carries its own
tangency, L^r-monotonicity and family verdicts.  On top of that:

* on the default seed at the full grid, the final diagnostics row (for the
  family: every row of the family CSV) must match reference.json to a
  relative tolerance that accepts round-off (a different but equally
  accurate factorization or Krylov variant) and rejects a wrong answer;
* on disk_viscous the L^2 norm of the Bessel eigenmode must decay at the
  Dirichlet heat rate, ||w(t)||_2 = exp(-nu j01^2 t) ||w(0)||_2, with the
  enstrophy rate within 1% (the acceptance suite's criterion 3).
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import DEFAULT_SEED, WORKLOADS

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
RTOL = 1e-6
ATOL_SCALE = 1e-9        # absolute slack, relative to the row's largest entry
BESSEL_J01 = 2.404825557695773
DECAY_RATE_TOL = 0.01


def output_rows(workload: str, out_dir: str):
    """Rows of the checked CSV: the family table, or the diagnostics stream."""
    scenario = WORKLOADS[workload].scenario
    family = os.path.join(out_dir, f"{scenario}_family.csv")
    path = family if os.path.isfile(family) else \
        os.path.join(out_dir, f"{scenario}_diagnostics.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(v) for v in row] for row in rows[1:]]
    return os.path.basename(path), header, body


def reference_rows(workload: str, out_dir: str):
    """The rows that are compared against the stored reference."""
    name, header, body = output_rows(workload, out_dir)
    return name, header, (body if name.endswith("_family.csv") else body[-1:])


def _close(a: float, b: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * abs(b) + atol


def check_run(workload: str, seed: int, out_dir: str, *, full_size: bool) -> list:
    """Problems found in one run's outputs; empty when the run is correct."""
    problems = []
    if full_size and seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            ref = json.load(fh)[workload]
        name, header, rows = reference_rows(workload, out_dir)
        if name != ref["file"] or header != ref["header"] or len(rows) != len(ref["rows"]):
            problems.append(f"{name}: shape differs from the reference {ref['file']}")
        else:
            for got, want in zip(rows, ref["rows"]):
                atol = ATOL_SCALE * max(abs(v) for v in want if not math.isnan(v))
                bad = [col for col, a, b in zip(header, got, want) if not _close(a, b, atol)]
                if bad:
                    problems.append(f"{name}: {', '.join(bad)} differ from the reference "
                                    f"beyond rtol {RTOL:g}")
    if workload == "disk_viscous":
        _, header, body = output_rows(workload, out_dir)
        t_col, l2_col = header.index("t"), header.index("l2")
        t_span = body[-1][t_col] - body[0][t_col]
        rate = -math.log((body[-1][l2_col] / body[0][l2_col]) ** 2) / t_span
        nu = float(dict(WORKLOADS[workload].physics)["physics.nu"])
        target = 2.0 * nu * BESSEL_J01 ** 2
        if abs(rate / target - 1.0) > DECAY_RATE_TOL:
            problems.append(f"L2 decay rate {rate:.6f} is not within "
                            f"{DECAY_RATE_TOL:.0%} of 2 nu j01^2 = {target:.6f}")
    return problems
