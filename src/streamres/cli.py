"""Command-line front end: verification registry, simulators, scoring, probing.

The verify subcommand runs a fixed registry of 24 seeded checks spanning the
closed forms, the Monte Carlo experiments, and the deterministic switching
calculus.  Output ordering and the records format are stable byte-for-byte
for a given seed, so reports diff cleanly.  Exit codes: 0 all hard checks
passed, 1 at least one hard check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlparse

from . import analytics
from .analytics import SpeedupScenario
from .probe import (
    DEFAULT_TIMEOUT_MS,
    HttpTransport,
    ProbeResult,
    StreamCandidate,
    probe_all,
    sort_results,
)
from .prospect import DEFAULT_PARAMS, ProspectParams, switch_score, value, weight
from .reservoir import Reservoir
from .simulator import (
    DepletionConfig,
    MonotonicityConfig,
    run_depletion,
    run_monotonicity,
    run_speedup_empirical,
    run_thrash,
)
from .viability import Rng

__all__ = ["CheckResult", "VerifyReport", "run_verify", "main", "entrypoint"]

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
DEFAULT_QUALITY = 720


# -- check results -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one registry check.

    comparison says how expected and actual were compared: "within" is the
    usual |actual - expected| <= tolerance, "at_least"/"at_most" are one-sided
    bounds.  Soft checks never fail the suite; they carry a warning instead.
    """

    id: str
    description: str
    expected: float
    actual: float
    tolerance: float
    passed: bool
    provenance: str
    comparison: str = "within"
    soft: bool = False
    warning: str | None = None


def _evaluate(
    check_id: str,
    description: str,
    expected: float,
    actual: float,
    tolerance: float,
    provenance: str,
    comparison: str = "within",
    soft: bool = False,
) -> CheckResult:
    if comparison == "within":
        ok = abs(actual - expected) <= tolerance
    elif comparison == "at_least":
        ok = actual >= expected - tolerance
    elif comparison == "at_most":
        ok = actual <= expected + tolerance
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return CheckResult(
        id=check_id,
        description=description,
        expected=expected,
        actual=actual,
        tolerance=tolerance,
        passed=ok or soft,
        provenance=provenance,
        comparison=comparison,
        soft=soft,
        warning=None if ok else f"outside tolerance (soft check)" if soft else None,
    )


@dataclass(frozen=True, slots=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    seed: int
    trials: int
    elapsed_s: float

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
            f"{c.id}\t{c.expected:.10g}\t{c.actual:.10g}\t{c.tolerance:.10g}\t"
            f"{'pass' if c.passed else 'fail'}"
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
                f"{c.id:<6} {c.expected:>12.6g} {c.actual:>12.6g} "
                f"{c.tolerance:>10.6g}  {status:<4}  {c.description}"
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


# -- the registry ------------------------------------------------------------


def _depletion_checks(rng: Rng, trials: int, scale: float) -> list[CheckResult]:
    # Same namespace as `simulate depletion`, so the registry numbers can be
    # reproduced manually with the matching flags.  Each config's shape keys
    # its substreams, so the three runs never share draws.
    single = run_depletion(
        DepletionConfig(1, (0.10,), horizon=100, trials=trials, refill=True), rng
    )
    refilled = run_depletion(
        DepletionConfig(3, DEPLETION_RATES, horizon=100, trials=trials, refill=True),
        rng,
    )
    drained = run_depletion(
        DepletionConfig(3, DEPLETION_RATES, horizon=100, trials=trials, refill=False),
        rng,
    )
    ratio = refilled.mean / single.mean
    max_lifetime = analytics.expected_max_exponential(DEPLETION_RATES)
    return [
        _evaluate(
            "T1.1",
            "single-slot mean depletion time",
            10.0,
            single.mean,
            0.3 * scale,
            "monte-carlo",
        ),
        _evaluate(
            "T1.2",
            "refilled 3-slot mean depletion time",
            91.4,
            refilled.mean,
            1.5 * scale,
            "monte-carlo",
        ),
        _evaluate(
            "T1.3",
            "refilled-vs-single lifetime ratio",
            9.15,
            ratio,
            0.2 * scale,
            "monte-carlo",
        ),
        _evaluate(
            "T1.4",
            "lifetime ratio clears the harmonic floor",
            analytics.harmonic_number(3),
            ratio,
            0.0,
            "monte-carlo",
            comparison="at_least",
        ),
        _evaluate(
            "T1.5",
            "no-refill mean matches exact max lifetime",
            max_lifetime,
            drained.mean,
            0.5 * scale,
            "monte-carlo",
        ),
    ]


def _speedup_checks(rng: Rng, trials: int, scale: float) -> list[CheckResult]:
    wide = SpeedupScenario(12, 3, 0.4)
    deep = SpeedupScenario(20, 5, 0.3)
    lossy = SpeedupScenario(8, 2, 0.5)
    emp_batched, emp_concurrent = run_speedup_empirical(
        wide, trials * EMPIRICAL_TRIALS_FACTOR, rng.split(24)
    )
    grid_violations = 0
    for n in range(2, 13):
        for b in range(1, n):
            for i in range(10):
                scenario = SpeedupScenario(n, b, i * 0.05)
                if analytics.batched_speedup(scenario) <= 1.0:
                    grid_violations += 1
    return [
        _evaluate(
            "T2.1",
            "batched scan penalty, 12 candidates in 3s",
            4.27,
            analytics.batched_speedup(wide),
            0.01,
            "closed-form",
        ),
        _evaluate(
            "T2.2",
            "batched scan penalty, 20 candidates in 5s",
            4.01,
            analytics.batched_speedup(deep),
            0.01,
            "closed-form",
        ),
        _evaluate(
            "T2.3",
            "batched scan penalty, 8 candidates in 2s",
            5.31,
            analytics.batched_speedup(lossy),
            0.01,
            "closed-form",
        ),
        _evaluate(
            "T2.4",
            "empirical scan penalty matches closed form",
            analytics.batched_speedup(wide),
            emp_batched / emp_concurrent,
            0.05 * scale,
            "monte-carlo",
        ),
        _evaluate(
            "T2.5",
            "concurrent scan wins across the whole grid",
            0.0,
            float(grid_violations),
            0.0,
            "closed-form",
        ),
    ]


def _monotonicity_checks(rng: Rng) -> list[CheckResult]:
    low = MonotonicityConfig(REFERENCE_PROVIDERS, steps=100, tau=0.3, slot_count=3)
    high = MonotonicityConfig(REFERENCE_PROVIDERS, steps=100, tau=0.7, slot_count=3)
    low_runs = [
        run_monotonicity(low, rng.split(31), trial) for trial in range(SWEEP_SEEDS)
    ]
    high_runs = [
        run_monotonicity(high, rng.split(34), trial) for trial in range(SWEEP_SEEDS)
    ]
    violations = sum(r.monotone_violations for r in low_runs)
    min_final = min(r.final_quality for r in low_runs)
    conv_low = sum(r.convergence_step for r in low_runs) / len(low_runs)
    conv_high = sum(r.convergence_step for r in high_runs) / len(high_runs)
    return [
        _evaluate(
            "T3.1",
            "active quality never steps down (100-seed sweep)",
            0.0,
            float(violations),
            0.0,
            "monte-carlo",
        ),
        _evaluate(
            "T3.2",
            "every sweep run ends at the best eligible quality",
            2160.0,
            float(min_final),
            0.0,
            "monte-carlo",
        ),
        _evaluate(
            "T3.3",
            "mean convergence step, permissive admission",
            15.0,
            conv_low,
            5.0,
            "monte-carlo",
            soft=True,
        ),
        _evaluate(
            "T3.4",
            "mean convergence step, strict admission",
            45.0,
            conv_high,
            12.0,
            "monte-carlo",
            soft=True,
        ),
    ]


def _prospect_checks() -> list[CheckResult]:
    delta = 360.0 / DEFAULT_PARAMS.quality_ceiling
    loss_ratio = abs(value(-delta)) / value(delta)
    thrash = run_thrash(THRASH_LEVELS, steps=100)
    return [
        _evaluate(
            "T4.1", "losses weigh 2.25x equal gains", 2.25, loss_ratio, 1e-3,
            "deterministic",
        ),
        _evaluate(
            "T4.2", "rare events overweighted", 0.0553, weight(0.01), 5e-4,
            "deterministic",
        ),
        _evaluate(
            "T4.3", "even odds underweighted", 0.4206, weight(0.50), 5e-4,
            "deterministic",
        ),
        _evaluate(
            "T4.4", "near-certainty underweighted", 0.9116, weight(0.99), 5e-4,
            "deterministic",
        ),
        _evaluate(
            "T4.5",
            "720 to 1080 after one verification",
            -0.010,
            switch_score(720, 1080, 1),
            2e-3,
            "deterministic",
        ),
        _evaluate(
            "T4.6",
            "720 to 1080 after three verifications",
            0.055,
            switch_score(720, 1080, 3),
            2e-3,
            "deterministic",
        ),
        _evaluate(
            "T4.7",
            "720 to 1080 after five verifications",
            0.079,
            switch_score(720, 1080, 5),
            2e-3,
            "deterministic",
        ),
        _evaluate(
            "T4.8",
            "same quality scores exactly minus the switch cost",
            -0.120,
            switch_score(1080, 1080, 9),
            1e-6,
            "deterministic",
        ),
        _evaluate(
            "T4.9",
            "marginal 60px gain stays under the cost",
            -0.097,
            switch_score(720, 780, 1),
            2e-3,
            "deterministic",
        ),
        _evaluate(
            "T4.10",
            "switches across five close levels stay rare",
            2.0,
            float(thrash.switch_count),
            0.0,
            "deterministic",
            comparison="at_most",
        ),
    ]


def run_verify(
    seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS, workers: int = 1
) -> VerifyReport:
    """Run the full 24-check registry and return the report.

    workers must be >= 1 and has no effect: every experiment draws from
    fixed substreams in a fixed order.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()
    rng = Rng(seed)
    scale = math.sqrt(BASELINE_TRIALS / trials) if trials < BASELINE_TRIALS else 1.0
    checks = [
        *_depletion_checks(rng, trials, scale),
        *_speedup_checks(rng, trials, scale),
        *_monotonicity_checks(rng),
        *_prospect_checks(),
    ]
    return VerifyReport(
        checks=tuple(checks),
        seed=seed,
        trials=trials,
        elapsed_s=time.perf_counter() - started,
    )


# -- subcommand handlers -----------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(seed=args.seed, trials=args.trials, workers=args.workers)
    if args.format == "records":
        sys.stdout.write(report.records())
    else:
        sys.stdout.write(report.text())
    return 0 if report.all_passed else 1


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_providers(text: str) -> tuple[tuple[int, float], ...]:
    providers = []
    for part in text.split(","):
        quality, _, availability = part.partition(":")
        try:
            providers.append((int(quality), float(availability)))
        except ValueError:
            raise ValueError(
                f"expected quality:availability pairs, got {part!r}"
            ) from None
    return tuple(providers)


def _cmd_simulate(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    if args.kind == "depletion":
        rates = _parse_rates(args.rates)
        config = DepletionConfig(
            slot_count=args.k,
            failure_rates=rates,
            horizon=args.horizon,
            trials=args.trials,
            refill=args.refill,
        )
        result = run_depletion(config, rng)
        print(f"mean {result.mean:.1f} ± {result.stderr:.1f} ({result.trials} trials)")
        return 0
    if args.kind == "monotonicity":
        if args.sweep < 1:
            raise ValueError("sweep must be >= 1")
        config = MonotonicityConfig(
            providers=_parse_providers(args.providers),
            steps=args.steps,
            tau=args.tau,
            slot_count=args.k,
        )
        trace: list[str] | None = [] if args.trace else None
        runs = [
            run_monotonicity(config, rng, trial, trace_sink=trace if trial == 0 else None)
            for trial in range(args.sweep)
        ]
        print(f"violations {sum(r.monotone_violations for r in runs)}")
        print(f"min-final-quality {min(r.final_quality for r in runs)}")
        print(f"mean-convergence-step {sum(r.convergence_step for r in runs) / len(runs):.2f}")
        print(f"mean-switches {sum(r.switch_count for r in runs) / len(runs):.2f}")
        if trace is not None:
            for line in trace:
                print(line)
        return 0
    # thrash
    levels = tuple(int(level) for level in args.levels.split(","))
    trace = [] if args.trace else None
    summary = run_thrash(levels, steps=args.steps, trace_sink=trace)
    print(f"switches {summary.switch_count} ({args.steps} steps, {len(levels)} levels)")
    print(f"final-quality {summary.final_quality}")
    if trace is not None:
        for line in trace:
            print(line)
    return 0


def _params_from_args(args: argparse.Namespace) -> ProspectParams:
    return ProspectParams(
        alpha=args.alpha,
        beta=args.beta,
        loss_aversion=args.loss_aversion,
        gamma=args.gamma,
        switch_cost=args.switch_cost,
        quality_ceiling=args.quality_ceiling,
        confidence_base=args.confidence_base,
    )


def _cmd_score(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    score = switch_score(args.quality_active, args.quality_candidate, args.n, params)
    verdict = "SWITCH" if score > 0.0 else "HOLD"
    print(f"{score:.3f} {verdict}")
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    scenario = SpeedupScenario(args.n, args.b, args.f)
    concurrent = analytics.expected_time_concurrent(scenario)
    batched = analytics.expected_time_batched(scenario)
    print(f"concurrent {concurrent:.6g}")
    print(f"batched {batched:.6g}")
    print(f"speedup {analytics.batched_speedup(scenario):.2f}x")
    if args.empirical:
        emp_batched, emp_concurrent = run_speedup_empirical(
            scenario, args.trials, Rng(args.seed)
        )
        print(
            f"empirical {emp_batched / emp_concurrent:.4f} ({args.trials} trials)"
        )
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    if args.curve in ("value", "weight") and args.samples < 2:
        raise ValueError("samples must be >= 2")
    if args.curve == "value":
        span = 1000.0
        for i in range(args.samples):
            x = -span + 2.0 * span * i / (args.samples - 1)
            print(f"{x:.6g}\t{value(x):.6g}")
        return 0
    if args.curve == "weight":
        for i in range(args.samples):
            p = i / (args.samples - 1)
            print(f"{p:.6g}\t{weight(p):.6g}")
        return 0
    # uptime: expected useful lifetime against slot count
    if args.slots < 1:
        raise ValueError("slots must be >= 1")
    for k in range(1, args.slots + 1):
        print(f"{k}\t{analytics.utility_estimate(k, args.failure_rate):.6g}")
    return 0


def _read_lines(path: str) -> list[str]:
    """Lines of a file named on the command line; unreadable is a usage error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    return text.splitlines()


def _read_url_file(path: str) -> list[StreamCandidate]:
    candidates = []
    for raw in _read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        url = parts[0]
        quality = int(parts[1]) if len(parts) > 1 else DEFAULT_QUALITY
        candidates.append(
            StreamCandidate(
                id=url,
                provider_id=urlparse(url).netloc or url,
                quality=quality,
                locator=url,
            )
        )
    if not candidates:
        raise ValueError(f"no usable URLs in {path}")
    return candidates


def _cmd_probe(args: argparse.Namespace) -> int:
    candidates = _read_url_file(args.urls)
    results = probe_all(
        candidates,
        HttpTransport(),
        timeout_ms=args.timeout_ms,
        max_in_flight=args.max_in_flight,
    )
    for result in sort_results(results):
        state = "ok" if result.viable else ("timeout" if result.timed_out else "dead")
        status = str(result.status) if result.status is not None else "-"
        print(
            f"{state:<7} {result.latency_ms:8.1f}ms {status:>4} "
            f"{result.candidate.quality:>5}p {result.candidate.locator}"
        )
    reservoir = Reservoir.sprint_fill(results, capacity=args.k)
    if reservoir is None:
        print("acquisition failed: no viable stream")
        return 1
    print(f"active {reservoir.active.candidate.locator}")
    for slot in reservoir.standbys:
        print(f"standby {slot.candidate.locator}")
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 42)")
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help=f"Monte Carlo trials, min {MIN_TRIALS} (default {DEFAULT_TRIALS})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default=None,
        help="output format for verify (default text)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="has no effect; kept for compatibility (default 1)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="key=value file overriding defaults for seed/trials/format/workers",
    )


def _add_prospect_overrides(parser: argparse.ArgumentParser) -> None:
    d = DEFAULT_PARAMS
    parser.add_argument("--alpha", type=float, default=d.alpha)
    parser.add_argument("--beta", type=float, default=d.beta)
    parser.add_argument("--loss-aversion", type=float, default=d.loss_aversion)
    parser.add_argument("--gamma", type=float, default=d.gamma)
    parser.add_argument("--switch-cost", type=float, default=d.switch_cost)
    parser.add_argument("--quality-ceiling", type=float, default=d.quality_ceiling)
    parser.add_argument("--confidence-base", type=float, default=d.confidence_base)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamres",
        description="Verified-stream reservoir: verification registry and simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the 24-check registry")
    _add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run one experiment family")
    sim_sub = p_sim.add_subparsers(dest="kind", required=True)

    p_dep = sim_sub.add_parser("depletion", help="depletion horizon experiment")
    _add_common(p_dep)
    p_dep.add_argument("--k", type=int, default=3, help="slot count")
    p_dep.add_argument(
        "--lambdas",
        dest="rates",
        default="0.10,0.12,0.15",
        help="comma-separated per-slot failure rates",
    )
    p_dep.add_argument("--horizon", type=int, default=100)
    p_dep.add_argument(
        "--refill", action=argparse.BooleanOptionalAction, default=True
    )
    p_dep.set_defaults(handler=_cmd_simulate)

    p_mono = sim_sub.add_parser("monotonicity", help="lazy-refill quality trajectory")
    _add_common(p_mono)
    p_mono.add_argument(
        "--providers",
        default=",".join(f"{q}:{a}" for q, a in REFERENCE_PROVIDERS),
        help="comma-separated quality:availability pairs",
    )
    p_mono.add_argument("--steps", type=int, default=100)
    p_mono.add_argument("--tau", type=float, default=0.3)
    p_mono.add_argument("--k", type=int, default=3, help="slot count")
    p_mono.add_argument("--sweep", type=int, default=1, help="number of trials")
    p_mono.add_argument("--trace", action="store_true", help="print trial 0 event log")
    p_mono.set_defaults(handler=_cmd_simulate)

    p_thrash = sim_sub.add_parser("thrash", help="switch churn under stable streams")
    _add_common(p_thrash)
    p_thrash.add_argument(
        "--levels",
        default=",".join(str(level) for level in THRASH_LEVELS),
        help="comma-separated quality levels",
    )
    p_thrash.add_argument("--steps", type=int, default=100)
    p_thrash.add_argument("--trace", action="store_true", help="print the event log")
    p_thrash.set_defaults(handler=_cmd_simulate)

    p_score = sub.add_parser("score", help="score one candidate switch")
    _add_common(p_score)
    p_score.add_argument("quality_active", type=float)
    p_score.add_argument("quality_candidate", type=float)
    p_score.add_argument("--n", type=int, default=1, help="candidate verifications")
    _add_prospect_overrides(p_score)
    p_score.set_defaults(handler=_cmd_score)

    p_speed = sub.add_parser("speedup", help="batched vs concurrent scan cost")
    _add_common(p_speed)
    p_speed.add_argument("n", type=int, help="candidate count")
    p_speed.add_argument("b", type=int, help="batch size")
    p_speed.add_argument("f", type=float, help="per-probe failure probability")
    p_speed.add_argument(
        "--empirical", action="store_true", help="also run the Monte Carlo estimate"
    )
    p_speed.set_defaults(handler=_cmd_speedup)

    p_probe = sub.add_parser("probe", help="probe stream URLs and pick a reservoir")
    _add_common(p_probe)
    p_probe.add_argument("--urls", required=True, help="file of 'url [quality]' lines")
    p_probe.add_argument("--timeout-ms", type=float, default=DEFAULT_TIMEOUT_MS)
    p_probe.add_argument("--k", type=int, default=3, help="reservoir capacity")
    p_probe.add_argument("--max-in-flight", type=int, default=None)
    p_probe.set_defaults(handler=_cmd_probe)

    p_curves = sub.add_parser("curves", help="emit (x, y) pairs for the named curve")
    _add_common(p_curves)
    p_curves.add_argument("curve", choices=("value", "weight", "uptime"))
    p_curves.add_argument("--samples", type=int, default=101)
    p_curves.add_argument("--slots", type=int, default=8, help="max slot count (uptime)")
    p_curves.add_argument(
        "--failure-rate", type=float, default=0.1, help="mean failure rate (uptime)"
    )
    p_curves.set_defaults(handler=_cmd_curves)

    return parser


def _load_config(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for raw in _read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {raw!r}")
        key, val = line.split("=", 1)
        mapping[key.strip()] = val.strip()
    return mapping


def _resolve_common(args: argparse.Namespace) -> None:
    """Fold config-file values under explicit flags, then apply defaults."""
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
        unknown = set(config) - {"seed", "trials", "format", "workers"}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if getattr(args, "seed", None) is None:
        args.seed = int(config.get("seed", DEFAULT_SEED))
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    if getattr(args, "trials", None) is None:
        args.trials = int(config.get("trials", DEFAULT_TRIALS))
    if getattr(args, "format", None) is None:
        args.format = config.get("format", "text")
    if args.format not in ("text", "records"):
        raise ValueError(f"format must be text or records, got {args.format!r}")
    if getattr(args, "workers", None) is None:
        args.workers = int(config.get("workers", 1))
    if args.trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if args.workers < 1:
        raise ValueError("workers must be >= 1")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            _resolve_common(args)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
