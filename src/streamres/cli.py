"""Command-line front end: parses arguments, runs one subcommand, prints.

verify runs the check registry (streamres.registry) and prints its report;
the other subcommands run one simulator, closed form, score, curve or probe
round.  Each subcommand takes only the options its handler reads.  Exit
codes: 0 success (for verify, every hard check passed), 1 a hard check
failed or nothing viable was probed, 2 usage error (including a --trials too
large to allocate).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar
from urllib.parse import urlparse

from . import analytics
from .analytics import SpeedupScenario
from .probe import (
    DEFAULT_TIMEOUT_MS,
    HttpTransport,
    StreamCandidate,
    probe_all,
    sort_results,
)
from .prospect import ProspectParams, switch_score, value, weight
from .registry import (
    CHECKS,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    DEPLETION_RATES,
    MIN_TRIALS,
    REFERENCE_PROVIDERS,
    THRASH_LEVELS,
    CheckResult,
    VerifyReport,
    run_verify,
)
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

DEFAULT_QUALITY = 720

# Largest value of every integer option but the seed (SeedSequence takes any
# size), and of each quality in --levels, --providers and a URL file: past the
# largest machine index an integer cannot size an array or convert to a float.
_MOST = sys.maxsize

_T = TypeVar("_T")


# -- subcommand handlers -----------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(seed=args.seed, trials=args.trials)
    if args.format == "records":
        sys.stdout.write(report.records())
    else:
        sys.stdout.write(report.text())
    return 0 if report.all_passed else 1


def _parse_list(
    option: str, text: str, convert: Callable[[str], _T], expected: str
) -> tuple[_T, ...]:
    """Each comma-separated part through convert; a ValueError names option."""
    try:
        return tuple(convert(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"{option}: expected comma-separated {expected}, got {text!r}"
        ) from None


def _int(text: str) -> int:
    # ASCII digits after an optional minus sign: int() alone also takes
    # underscores, surrounding spaces and non-ASCII digits.  The sign stays,
    # so a negative reaches its option's bound check.
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _float(text: str) -> float:
    # ASCII without underscores or surrounding spaces, which float() alone
    # also takes.  nan and inf pass, and meet their option's own check.
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(text)
    return float(text)


_float.__name__ = "float"


def _bounded_int(text: str) -> int:
    number = _int(text)
    if number > _MOST:
        raise ValueError(text)
    return number


def _provider(text: str) -> tuple[int, float]:
    quality, _, availability = text.partition(":")
    return _bounded_int(quality), _float(availability)


def _positive_int(text: str) -> int:
    number = _bounded_int(text)
    if number < 1:
        raise ValueError(text)
    return number


def _cmd_depletion(args: argparse.Namespace) -> int:
    config = DepletionConfig(
        failure_rates=_parse_list("--lambdas", args.rates, _float, "numbers"),
        horizon=args.horizon,
        trials=args.trials,
        refill=args.refill,
    )
    result = run_depletion(config, Rng(args.seed))
    print(f"mean {result.mean:.1f} ± {result.stderr:.1f} ({result.trials} trials)")
    return 0


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    config = MonotonicityConfig(
        providers=_parse_list(
            "--providers", args.providers, _provider, "quality:availability pairs"
        ),
        steps=args.steps,
        tau=args.tau,
        slot_count=args.k,
    )
    rng = Rng(args.seed)
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


def _cmd_thrash(args: argparse.Namespace) -> int:
    levels = _parse_list("--levels", args.levels, _positive_int, "positive integers")
    trace: list[str] | None = [] if args.trace else None
    summary = run_thrash(levels, steps=args.steps, trace_sink=trace)
    print(f"switches {summary.switch_count} ({args.steps} steps, {len(levels)} levels)")
    print(f"final-quality {summary.final_quality}")
    if trace is not None:
        for line in trace:
            print(line)
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    params = ProspectParams(
        **{field.name: getattr(args, field.name) for field in fields(ProspectParams)}
    )
    score = switch_score(args.quality_active, args.quality_candidate, args.n, params)
    verdict = "SWITCH" if score > 0.0 else "HOLD"
    print(f"{score:.3f} {verdict}")
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    scenario = SpeedupScenario(args.n, args.b, args.f)
    concurrent = analytics.expected_time_concurrent(scenario)
    batched = analytics.expected_time_batched(scenario)
    lines = [
        f"concurrent {concurrent:.6g}",
        f"batched {batched:.6g}",
        f"speedup {analytics.batched_speedup(scenario):.2f}x",
    ]
    # Printed only once every line exists, so a usage error leaves no output.
    if args.empirical:
        emp_batched, emp_concurrent = run_speedup_empirical(
            scenario, args.trials, Rng(args.seed)
        )
        lines.append(
            f"empirical {emp_batched / emp_concurrent:.4f} ({args.trials} trials)"
        )
    print("\n".join(lines))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    # Evenly spaced samples of args.fn over [args.lo, args.lo + args.width].
    for i in range(args.samples):
        x = args.lo + args.width * i / (args.samples - 1)
        print(f"{x:.6g}\t{args.fn(x):.6g}")
    return 0


def _cmd_uptime(args: argparse.Namespace) -> int:
    # Expected useful lifetime against slot count: utility_estimate's
    # H_k / rate, H_k accumulated rather than summed anew per line.  The first
    # line goes through utility_estimate, which refuses a bad rate first.
    rate = args.failure_rate
    print(f"1\t{analytics.utility_estimate(1, rate):.6g}")
    harmonic = 1.0
    for k in range(2, args.slots + 1):
        harmonic += 1.0 / k
        print(f"{k}\t{harmonic / rate:.6g}")
    return 0


def _read_url_file(path: str) -> list[StreamCandidate]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading BOM
    except OSError as exc:  # unreadable is a usage error
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:  # so is text that is not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    candidates = []
    for number, raw in enumerate(text.splitlines(), start=1):
        # Only a '#' at the start or after whitespace opens a comment.
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) > 2:
            raise ValueError(
                f"{path}:{number}: expected 'url [quality]', got {len(parts)} fields"
            )
        url = parts[0]
        quality = DEFAULT_QUALITY
        if len(parts) > 1:
            try:
                quality = _positive_int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{number}: quality must be a positive integer, "
                    f"got {parts[1]!r}"
                ) from None
        try:
            provider_id = urlparse(url).netloc or url
        except ValueError:  # an unclosed '[' host: keep it, the probe says dead
            provider_id = url
        candidates.append(
            StreamCandidate(
                id=url,
                provider_id=provider_id,
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


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=_int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})"
    )


def _add_trials(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trials",
        type=_int,
        default=DEFAULT_TRIALS,
        help=f"Monte Carlo trials, min {MIN_TRIALS} (default {DEFAULT_TRIALS})",
    )


def _add_prospect_overrides(parser: argparse.ArgumentParser) -> None:
    # One flag per ProspectParams field, defaulting to the field's default.
    for field in fields(ProspectParams):
        flag = "--" + field.name.replace("_", "-")
        parser.add_argument(flag, type=_float, default=field.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamres",
        description="Verified-stream reservoir: verification registry and simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help=f"run the {len(CHECKS)}-check registry")
    _add_seed(p_verify)
    _add_trials(p_verify)
    p_verify.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="report format (default text)",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run one experiment family")
    sim_sub = p_sim.add_subparsers(dest="kind", required=True)

    p_dep = sim_sub.add_parser("depletion", help="depletion horizon experiment")
    _add_seed(p_dep)
    _add_trials(p_dep)
    p_dep.add_argument(
        "--lambdas",
        dest="rates",
        default=",".join(str(rate) for rate in DEPLETION_RATES),
        help="comma-separated failure rates, one per slot",
    )
    p_dep.add_argument("--horizon", type=_int, default=100)
    p_dep.add_argument(
        "--refill", action=argparse.BooleanOptionalAction, default=True
    )
    p_dep.set_defaults(handler=_cmd_depletion)

    p_mono = sim_sub.add_parser("monotonicity", help="lazy-refill quality trajectory")
    _add_seed(p_mono)
    p_mono.add_argument(
        "--providers",
        default=",".join(f"{q}:{a}" for q, a in REFERENCE_PROVIDERS),
        help="comma-separated quality:availability pairs",
    )
    p_mono.add_argument("--steps", type=_int, default=100)
    p_mono.add_argument("--tau", type=_float, default=0.3)
    p_mono.add_argument("--k", type=_int, default=3, help="slot count")
    p_mono.add_argument("--sweep", type=_int, default=1, help="number of trials")
    p_mono.add_argument("--trace", action="store_true", help="print trial 0 event log")
    p_mono.set_defaults(handler=_cmd_monotonicity)

    p_thrash = sim_sub.add_parser("thrash", help="switch churn under stable streams")
    p_thrash.add_argument(
        "--levels",
        default=",".join(str(level) for level in THRASH_LEVELS),
        help="comma-separated quality levels",
    )
    p_thrash.add_argument("--steps", type=_int, default=100)
    p_thrash.add_argument("--trace", action="store_true", help="print the event log")
    p_thrash.set_defaults(handler=_cmd_thrash)

    p_score = sub.add_parser("score", help="score one candidate switch")
    p_score.add_argument("quality_active", type=_float)
    p_score.add_argument("quality_candidate", type=_float)
    p_score.add_argument("--n", type=_int, default=1, help="candidate verifications")
    _add_prospect_overrides(p_score)
    p_score.set_defaults(handler=_cmd_score)

    p_speed = sub.add_parser("speedup", help="batched vs concurrent scan cost")
    _add_seed(p_speed)
    _add_trials(p_speed)
    p_speed.add_argument("n", type=_int, help="candidate count")
    p_speed.add_argument("b", type=_int, help="batch size")
    p_speed.add_argument("f", type=_float, help="per-probe failure probability")
    p_speed.add_argument(
        "--empirical", action="store_true", help="also run the Monte Carlo estimate"
    )
    p_speed.set_defaults(handler=_cmd_speedup)

    p_probe = sub.add_parser("probe", help="probe stream URLs and pick a reservoir")
    p_probe.add_argument("--urls", required=True, help="file of 'url [quality]' lines")
    p_probe.add_argument("--timeout-ms", type=_float, default=DEFAULT_TIMEOUT_MS)
    p_probe.add_argument("--k", type=_int, default=3, help="reservoir capacity")
    p_probe.add_argument("--max-in-flight", type=_int, default=None)
    p_probe.set_defaults(handler=_cmd_probe)

    p_curves = sub.add_parser("curves", help="emit (x, y) pairs for the named curve")
    curves_sub = p_curves.add_subparsers(dest="curve", required=True)
    for name, fn, lo, width in (
        ("value", value, -1000.0, 2000.0),
        ("weight", weight, 0.0, 1.0),
    ):
        p_curve = curves_sub.add_parser(name, help=f"prospect {name} curve")
        p_curve.add_argument("--samples", type=_int, default=101)
        p_curve.set_defaults(handler=_cmd_curve, fn=fn, lo=lo, width=width)
    p_uptime = curves_sub.add_parser("uptime", help="expected lifetime per slot count")
    p_uptime.add_argument("--slots", type=_int, default=8, help="max slot count")
    p_uptime.add_argument(
        "--failure-rate", type=_float, default=0.1, help="mean failure rate"
    )
    p_uptime.set_defaults(handler=_cmd_uptime)

    return parser


# Least value of each bounded integer option, by argparse dest.  main checks
# them before the handler runs, so a bad one prints and probes nothing.  Not
# here: score --n (>= 0) and speedup n (>= 1), which the library calls taking
# them check before any output.
_LEAST = {"seed": 0, "trials": MIN_TRIALS, "sweep": 1, "samples": 2, "slots": 1, "k": 1}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Checked before any handler prints or probes.
        for dest, least in _LEAST.items():
            if getattr(args, dest, least) < least:
                raise ValueError(f"{dest} must be >= {least}")
        for dest, number in vars(args).items():
            if type(number) is int and dest != "seed" and number > _MOST:
                raise ValueError(f"{dest} must be <= {_MOST}")
        return args.handler(args)
    except (ValueError, MemoryError, OverflowError) as exc:
        # A --trials too large to allocate, or an integer too large for a
        # float, is a usage error too.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader closed stdout early (`... | head -2`).  Point stdout at
        # devnull so the flush at exit cannot raise again, and exit 1 with
        # nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    entrypoint()
