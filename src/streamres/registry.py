"""The verification registry: seeded checks of the library's behaviour.

The checks span the closed forms, the Monte Carlo experiments and the
deterministic switching calculus.  CHECKS is the table: one row per check,
with its expected value, tolerance, provenance and comparison.  Four section
functions run the experiments once per run and return what they measured,
by check id, and one function judges every row against its measurement.
run_verify starts the T3 sweep, nearly all of a run's time, before the other
sections: where it forks, the child runs half the sweep's trials while this
process runs depletion, speedup and prospect and then its own half.
Output ordering and the records format are stable byte-for-byte for a given
seed and trial count, so reports diff cleanly.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, NoReturn

from . import analytics
from .analytics import SpeedupScenario
from .prospect import DEFAULT_PARAMS, switch_score, value, weight
from .simulator import (
    DepletionConfig,
    MonotonicityConfig,
    TrialSummary,
    run_depletion,
    run_monotonicity,
    run_speedup_empirical,
    run_thrash,
)
from .viability import Rng

__all__ = ["CHECKS", "Check", "CheckResult", "VerifyReport", "run_verify"]

DEFAULT_SEED = 42
DEFAULT_TRIALS = 5000
MIN_TRIALS = 100
# Monte Carlo tolerances are calibrated at this trial count; smaller runs
# widen them by sqrt(baseline / trials).
BASELINE_TRIALS = 5000
# The empirical speedup check wants a tighter estimate than the depletion
# runs, so it runs at a multiple of --trials (100k at the default).
EMPIRICAL_TRIALS_FACTOR = 20
SWEEP_SEEDS = 100

REFERENCE_PROVIDERS = ((360, 0.3), (720, 0.5), (1080, 0.7), (2160, 0.9))
THRASH_LEVELS = (1080, 1060, 1040, 1020, 1000)
DEPLETION_RATES = (0.10, 0.12, 0.15)
WIDE = SpeedupScenario(12, 3, 0.4)
DEEP = SpeedupScenario(20, 5, 0.3)
LOSSY = SpeedupScenario(8, 2, 0.5)

CLOSED_FORM = "closed-form"
MONTE_CARLO = "monte-carlo"
DETERMINISTIC = "deterministic"


@dataclass(frozen=True, slots=True)
class Check:
    """One row of the registry: what a check expects and how it compares.

    comparison says how expected and actual are compared: "within" is the
    usual |actual - expected| <= tolerance, "at_least"/"at_most" are
    one-sided bounds.  A soft check never fails the suite; it warns instead.
    """

    id: str
    description: str
    expected: float
    tolerance: float
    provenance: str
    comparison: str = "within"
    soft: bool = False


CHECKS: tuple[Check, ...] = (
    Check("T1.1", "single-slot mean depletion time", 10.0, 0.3, MONTE_CARLO),
    Check("T1.2", "refilled 3-slot mean depletion time", 91.4, 1.5, MONTE_CARLO),
    Check("T1.3", "refilled-vs-single lifetime ratio", 9.15, 0.2, MONTE_CARLO),
    Check(
        "T1.4", "lifetime ratio clears the harmonic floor",
        analytics.harmonic_number(3), 0.0, MONTE_CARLO, comparison="at_least",
    ),
    Check(
        "T1.5", "no-refill mean matches exact max lifetime",
        analytics.expected_max_exponential(DEPLETION_RATES), 0.5, MONTE_CARLO,
    ),
    Check("T2.1", "batched scan penalty, 12 candidates in 3s", 4.27, 0.01, CLOSED_FORM),
    Check("T2.2", "batched scan penalty, 20 candidates in 5s", 4.01, 0.01, CLOSED_FORM),
    Check("T2.3", "batched scan penalty, 8 candidates in 2s", 5.31, 0.01, CLOSED_FORM),
    Check(
        "T2.4", "empirical scan penalty matches closed form",
        analytics.batched_speedup(WIDE), 0.05, MONTE_CARLO,
    ),
    Check("T2.5", "concurrent scan wins across the whole grid", 0.0, 0.0, CLOSED_FORM),
    Check(
        "T3.1", "active quality never steps down (100-seed sweep)",
        0.0, 0.0, MONTE_CARLO,
    ),
    Check(
        "T3.2", "every sweep run ends at the best eligible quality",
        2160.0, 0.0, MONTE_CARLO,
    ),
    Check(
        "T3.3", "mean convergence step, permissive admission",
        15.0, 5.0, MONTE_CARLO, soft=True,
    ),
    Check(
        "T3.4", "mean convergence step, strict admission",
        45.0, 12.0, MONTE_CARLO, soft=True,
    ),
    Check("T4.1", "losses weigh 2.25x equal gains", 2.25, 1e-3, DETERMINISTIC),
    Check("T4.2", "rare events overweighted", 0.0553, 5e-4, DETERMINISTIC),
    Check("T4.3", "even odds underweighted", 0.4206, 5e-4, DETERMINISTIC),
    Check("T4.4", "near-certainty underweighted", 0.9116, 5e-4, DETERMINISTIC),
    Check("T4.5", "720 to 1080 after one verification", -0.010, 2e-3, DETERMINISTIC),
    Check("T4.6", "720 to 1080 after three verifications", 0.055, 2e-3, DETERMINISTIC),
    Check("T4.7", "720 to 1080 after five verifications", 0.079, 2e-3, DETERMINISTIC),
    Check(
        "T4.8", "same quality scores exactly minus the switch cost",
        -0.120, 1e-6, DETERMINISTIC,
    ),
    Check(
        "T4.9", "marginal 60px gain stays under the cost",
        -0.097, 2e-3, DETERMINISTIC,
    ),
    Check(
        "T4.10", "switches across five close levels stay rare",
        2.0, 0.0, DETERMINISTIC, comparison="at_most",
    ),
)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one registry check: its row plus what was measured.

    tolerance is the row's, widened when the run had fewer trials than the
    baseline.  A soft check that misses passes and carries a warning.
    """

    check: Check
    actual: float
    tolerance: float
    passed: bool
    warning: str | None = None


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """The judged checks of one run, and where its time went.

    elapsed_s is the run's wall time and sections each section's own, by
    name.  The sections overlap: monotonicity's time runs from the start of
    the T3 sweep (its fork, where it forks) until the sweep's summaries are
    read, and the other three run inside it, so the four sum to more than
    elapsed_s.  forked says whether a child process ran half the sweep.
    """

    checks: tuple[CheckResult, ...]
    seed: int
    trials: int
    elapsed_s: float
    sections: dict[str, float]
    forked: bool

    @property
    def hard_failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.hard_failures == 0

    @property
    def warnings(self) -> int:
        return sum(1 for c in self.checks if c.warning is not None)

    def records(self) -> str:
        """One check per line: id, expected, actual, tolerance, passed."""
        lines = [
            f"{c.check.id}\t{c.check.expected:.10g}\t{c.actual:.10g}\t"
            f"{c.tolerance:.10g}\t{'pass' if c.passed else 'fail'}"
            for c in self.checks
        ]
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        rows = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            if c.warning is not None:
                status = "warn"
            rows.append(
                f"{c.check.id:<6} {c.check.expected:>12.6g} {c.actual:>12.6g} "
                f"{c.tolerance:>10.6g}  {status:<4}  {c.check.description}"
            )
        header = (
            f"{'check':<6} {'expected':>12} {'actual':>12} {'tolerance':>10}"
            f"  {'ok':<4}  description"
        )
        passed = len(self.checks) - self.hard_failures
        footer = (
            f"{len(self.checks)} checks: {passed} passed, "
            f"{self.hard_failures} failed, {self.warnings} warned "
            f"(seed {self.seed}, {self.trials} trials, {self.elapsed_s:.1f}s)"
        )
        return "\n".join([header, *rows, footer]) + "\n"

    def json(self) -> str:
        """The report as one JSON object: run, section times and every check."""
        report = {
            "seed": self.seed,
            "trials": self.trials,
            "elapsed_s": self.elapsed_s,
            "forked": self.forked,
            "sections": {
                name: {"elapsed_s": seconds} for name, seconds in self.sections.items()
            },
            # Each row's fields, its widened tolerance, and the outcome.
            "checks": [
                {
                    **asdict(c.check),
                    "tolerance": c.tolerance,
                    "actual": c.actual,
                    "passed": c.passed,
                    "warning": c.warning,
                }
                for c in self.checks
            ],
        }
        return json.dumps(report, indent=2) + "\n"


# -- sections: each runs its experiments once and returns actuals by id -------


def _depletion(rng: Rng, trials: int) -> dict[str, float]:
    # Same namespace as `simulate depletion`, so the registry numbers can be
    # reproduced manually with the matching flags.  Each config's shape keys
    # its substream, so the three runs never share draws.
    single = run_depletion(
        DepletionConfig((0.10,), horizon=100, trials=trials, refill=True), rng
    )
    refilled = run_depletion(
        DepletionConfig(DEPLETION_RATES, horizon=100, trials=trials, refill=True),
        rng,
    )
    drained = run_depletion(
        DepletionConfig(DEPLETION_RATES, horizon=100, trials=trials, refill=False),
        rng,
    )
    ratio = refilled.mean / single.mean
    return {
        "T1.1": single.mean,
        "T1.2": refilled.mean,
        "T1.3": ratio,
        "T1.4": ratio,
        "T1.5": drained.mean,
    }


def _speedup(rng: Rng, trials: int) -> dict[str, float]:
    emp_batched, emp_concurrent = run_speedup_empirical(
        WIDE, trials * EMPIRICAL_TRIALS_FACTOR, rng.split(24)
    )
    grid_violations = sum(
        1
        for n in range(2, 13)
        for b in range(1, n)
        for i in range(10)
        if analytics.batched_speedup(SpeedupScenario(n, b, i * 0.05)) <= 1.0
    )
    return {
        "T2.1": analytics.batched_speedup(WIDE),
        "T2.2": analytics.batched_speedup(DEEP),
        "T2.3": analytics.batched_speedup(LOSSY),
        "T2.4": emp_batched / emp_concurrent,
        "T2.5": float(grid_violations),
    }


def _monotonicity_jobs(rng: Rng) -> list[tuple[MonotonicityConfig, Rng, int]]:
    """The T3 sweep's jobs: 100 trials at tau 0.3, then 100 at tau 0.7."""
    low = MonotonicityConfig(REFERENCE_PROVIDERS, steps=100, tau=0.3, slot_count=3)
    high = MonotonicityConfig(REFERENCE_PROVIDERS, steps=100, tau=0.7, slot_count=3)
    low_rng, high_rng = rng.split(31), rng.split(34)
    return [(low, low_rng, trial) for trial in range(SWEEP_SEEDS)] + [
        (high, high_rng, trial) for trial in range(SWEEP_SEEDS)
    ]


def _monotonicity_actuals(runs: list[TrialSummary]) -> dict[str, float]:
    low_runs, high_runs = runs[:SWEEP_SEEDS], runs[SWEEP_SEEDS:]
    return {
        "T3.1": float(sum(r.monotone_violations for r in low_runs)),
        "T3.2": float(min(r.final_quality for r in low_runs)),
        "T3.3": sum(r.convergence_step for r in low_runs) / len(low_runs),
        "T3.4": sum(r.convergence_step for r in high_runs) / len(high_runs),
    }


def _monotonicity(rng: Rng) -> dict[str, float]:
    with _Sweep(_monotonicity_jobs(rng)) as sweep:
        return _monotonicity_actuals(sweep.runs())


def _fork_pays() -> bool:
    """Whether a forked child can share the sweep.

    It can where a second CPU is ours to use and no other Python thread
    runs: the child would inherit such a thread's locks, perhaps held.
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


class _Sweep:
    """run_monotonicity(*job) for every job, started here and read by runs().

    Where _fork_pays, a new sweep forks a child that starts on the jobs at
    odd positions at once, so the caller can do other work meanwhile
    (run_verify's other sections).  runs() runs the rest here, reads the
    child's summaries through a pipe, each as its four ints, reaps it and
    returns every summary in job order; otherwise, or when the fork fails,
    it runs every job here.  The split is fixed, so each process runs the
    same trials every time, and each trial draws from its own substream, so
    where it runs cannot change a summary.  A trial that raises in the child
    raises RuntimeError from runs() with the child's traceback.  Leaving the
    with block kills and reaps a child whose summaries were not read.
    """

    def __init__(self, jobs: list[tuple[MonotonicityConfig, Rng, int]]) -> None:
        self.jobs = jobs
        self.forked = False
        self._pid = 0
        self._reader = None
        if not _fork_pays():
            return
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # CPython 3.12+ warns on fork whenever the process has another
                # OS thread, and numpy's BLAS pool is one.  That pool runs no
                # Python and the child calls no BLAS; Python threads were
                # ruled out above.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:  # no process to spare: runs() runs every job here
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            _child(jobs[1::2], read_fd, write_fd)
        self.forked = True
        self._pid = pid
        os.close(write_fd)  # the child's end: the read in runs() ends when it exits
        self._reader = open(read_fd, "rb")

    def __enter__(self) -> "_Sweep":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._pid:  # a child whose summaries were not read
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
        if self._reader is not None:
            self._reader.close()

    def runs(self) -> list[TrialSummary]:
        if not self.forked:
            return [run_monotonicity(*job) for job in self.jobs]
        own = [run_monotonicity(*job) for job in self.jobs[::2]]
        with self._reader as reader:
            payload = reader.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = 0
        if status != 0:
            raise RuntimeError(f"the sweep's child process failed (wait status {status})")
        ok, message = pickle.loads(payload)
        if not ok:
            raise RuntimeError(f"a sweep trial failed in the child process:\n{message}")
        theirs = [TrialSummary(*fields) for fields in message]
        runs = own + theirs  # a list of the right length, interleaved below
        runs[::2], runs[1::2] = own, theirs
        return runs


def _child(
    jobs: list[tuple[MonotonicityConfig, Rng, int]], read_fd: int, write_fd: int
) -> NoReturn:
    # The sweep's forked child.  It ends in os._exit on every path, so it
    # never flushes the stdio buffers it inherited or runs the caller's exit
    # handlers, and it exits 0 once its whole message is written.
    exit_code = 1
    try:
        os.close(read_fd)
        try:
            runs = [run_monotonicity(*job) for job in jobs]
            fields = [
                (r.monotone_violations, r.final_quality, r.convergence_step, r.switch_count)
                for r in runs
            ]
            message = (True, fields)
        except BaseException:
            import traceback

            message = (False, traceback.format_exc())
        data = memoryview(pickle.dumps(message))
        while data:
            data = data[os.write(write_fd, data):]
        exit_code = 0
    finally:
        os._exit(exit_code)


def _prospect() -> dict[str, float]:
    delta = 360.0 / DEFAULT_PARAMS.quality_ceiling
    return {
        "T4.1": abs(value(-delta)) / value(delta),
        "T4.2": weight(0.01),
        "T4.3": weight(0.50),
        "T4.4": weight(0.99),
        "T4.5": switch_score(720, 1080, 1),
        "T4.6": switch_score(720, 1080, 3),
        "T4.7": switch_score(720, 1080, 5),
        "T4.8": switch_score(1080, 1080, 9),
        "T4.9": switch_score(720, 780, 1),
        "T4.10": float(run_thrash(THRASH_LEVELS, steps=100).switch_count),
    }


def _judge(check: Check, actual: float, widen: float) -> CheckResult:
    """Compare actual with the row; a Monte Carlo row's tolerance scales by widen."""
    tolerance = check.tolerance
    if check.provenance == MONTE_CARLO:
        tolerance *= widen
    if check.comparison == "within":
        ok = abs(actual - check.expected) <= tolerance
    elif check.comparison == "at_least":
        ok = actual >= check.expected - tolerance
    elif check.comparison == "at_most":
        ok = actual <= check.expected + tolerance
    else:
        raise ValueError(f"unknown comparison {check.comparison!r}")
    return CheckResult(
        check=check,
        actual=actual,
        tolerance=tolerance,
        passed=ok or check.soft,
        warning="outside tolerance (soft check)" if check.soft and not ok else None,
    )


def _timed(
    section: Callable[..., dict[str, float]], *args: object
) -> tuple[dict[str, float], float]:
    started = time.perf_counter()
    return section(*args), time.perf_counter() - started


def run_verify(
    seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS, workers: int = 1
) -> VerifyReport:
    """Run every check in CHECKS and return the report.

    The T3 sweep starts first.  Where this process may use two or more CPUs
    and runs no other Python thread, it forks a child that runs half the
    sweep's trials while this process runs the depletion, speedup and
    prospect sections and then its own half; the records are identical
    either way, because every trial draws from its own substream.  A section
    that raises kills and reaps the child before the error propagates.
    workers must be >= 1 and has no effect.  It stays in the signature only
    because existing callers, the committed benchmark among them, pass it.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()
    rng = Rng(seed)
    jobs = _monotonicity_jobs(rng)
    sweep_started = time.perf_counter()
    with _Sweep(jobs) as sweep:
        depletion, depletion_s = _timed(_depletion, rng, trials)
        speedup, speedup_s = _timed(_speedup, rng, trials)
        prospect, prospect_s = _timed(_prospect)
        monotonicity = _monotonicity_actuals(sweep.runs())
    monotonicity_s = time.perf_counter() - sweep_started
    # Only these two sections run at --trials, so only their Monte Carlo rows
    # widen below the baseline; the sweeps and closed forms never do.
    at_trials = {**depletion, **speedup}
    actuals = {**at_trials, **monotonicity, **prospect}
    widen = math.sqrt(BASELINE_TRIALS / trials) if trials < BASELINE_TRIALS else 1.0
    checks = tuple(
        _judge(check, actuals[check.id], widen if check.id in at_trials else 1.0)
        for check in CHECKS
    )
    return VerifyReport(
        checks=checks,
        seed=seed,
        trials=trials,
        elapsed_s=time.perf_counter() - started,
        sections={
            "depletion": depletion_s,
            "speedup": speedup_s,
            "monotonicity": monotonicity_s,
            "prospect": prospect_s,
        },
        forked=sweep.forked,
    )
