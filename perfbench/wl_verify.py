"""`verify` workload: the full 24-check registry at the published defaults.

`streamres.cli.run_verify(seed=42, trials=5000, workers=1)` is the number the
paper publishes.  The registry seed stays at 42 whatever `--seed` is: the
Monte Carlo checks are calibrated at that seed, and at other seeds some
(T1.1, T1.3) fall outside their tolerance by chance, which would count a
sampling accident as a program failure.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REGISTRY_SEED = 42
TRIALS = 5000
WORKERS = 1
CHECKS = 24


class Verify:
    name = "verify"
    op = "registry run"
    # Seconds of single-threaded CPU work: timed at reference speed (speed.py),
    # sampled by a timer because a registry run has no gaps to sample in.
    normalised = ("op_p50_ms", "op_tail_ms")
    speed_timer = True
    block = None
    replays = True  # every pass is the same registry run; gates() requires equal records()

    def __init__(self, sr, seed: int, max_in_flight: int) -> None:
        self.cli = sr.cli  # run_verify is looked up per pass, so a traced pass sees the wrapper
        self.records: str | None = None
        self.problems: list[str] = []
        self.peak_in_flight = 0

    def close(self) -> None:
        pass

    def run_pass(self, speed=None):
        started = perf_counter()
        report = self.cli.run_verify(seed=REGISTRY_SEED, trials=TRIALS, workers=WORKERS)
        elapsed = perf_counter() - started
        records = report.records()
        if len(report.checks) != CHECKS:
            self.problems.append(f"registry ran {len(report.checks)} checks, expected {CHECKS}")
        if self.records is None:
            self.records = records
        elif records != self.records:
            self.problems.append("records() output differs between runs at one seed")
        return {
            "op_starts": [started],
            "op_walls": [elapsed],
            "attempted": len(report.checks),
            "failed": report.hard_failures,
        }

    def gates(self) -> list[str]:
        return self.problems

    def named_lines(self, passes, line) -> None:
        times = [t for p in passes for t in p["op_walls"]]
        line("verify_s", float(np.median(times)), "s", f"median wall time, n={len(times)} registry runs")
        failed, attempted = passes[0]["failed"], passes[0]["attempted"]
        line("verify.failed_checks", failed / attempted, "share", f"{failed} of {attempted} checks, equal in every run")
