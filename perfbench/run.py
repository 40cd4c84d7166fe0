"""streamres benchmark: three workloads, end-to-end metrics and per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {verify,session,probe-http} \\
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's own ``src/`` and driven through
its public functions only.  After an untimed warm-up pass, ``--trace 0``
measures the end-to-end metrics with nothing wrapped (CPU-bound timings at
reference speed, see ``speed.py``); ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``perfbench/README.md``
plus the tracing overhead.  Every run checks the workload's outputs: per-operation failures
are counted in ``failed``; a broken run-level gate (registry shape, repeated
records, exact counts, the load ceiling) makes ``correct`` false and the
exit code 1.  Human-readable lines come first; the last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import RESERVOIR_METHODS, SIMULATORS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {
    "verify": ("wl_verify", "Verify"),
    "session": ("wl_session", "Session"),
    "probe-http": ("wl_probe_http", "ProbeHttp"),
}
# Percentile reported as op_tail_ms, with at least ten samples beyond it in a
# run.  Session: p99 falls among the 8-10% of steps that run a probe round.
# Probe-http: p90 falls among the drip rounds.  Verify: a run holds under a
# dozen registry runs, so no percentile above the median qualifies and its
# tail is the median.
TAIL_PERCENTILE = {"verify": 50, "session": 99, "probe-http": 90}
SETUP_REPS = 10
TRACE_SETUP_REPS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60.0

EVENT_COUNTS = {"upgrades": "upgrade", "failovers": "failover", "refills": "refill", "health_fails": "health_fail"}


def per_layer_units() -> dict[str, str]:
    units = {
        "prospect.switch_score.calls": "count",
        "prospect.switch_score.busy_s": "s",
        "viability.substream.calls": "count",
        "viability.substream.busy_s": "s",
        "probe.probe_all.calls": "count",
        "probe.probe_all.self_s": "s",
        "probe.transport.calls": "count",
        "probe.transport.busy_s": "s",
        "probe.viable_ratio": "ratio",
        "probe.timeouts": "count",
        "probe.overrun_ms": "ms",
        "probe.peak_in_flight": "count",
        "probe.empirical_first_success_rounds.busy_s": "s",
    }
    for name in RESERVOIR_METHODS:
        units[f"reservoir.{name}.calls"] = "count"
        units[f"reservoir.{name}.busy_s"] = "s"
    units["reservoir.events_retained"] = "count"
    for name in EVENT_COUNTS:
        units[f"reservoir.{name}"] = "count"
    for name in SIMULATORS:
        units[f"simulator.{name}.busy_s"] = "s"
        units[f"simulator.{name}.self_s"] = "s"
    units.update({
        "analytics.busy_s": "s",
        "cli.run_verify.self_s": "s",
        "setup.import_streamres_ms": "ms",
        "setup.import_requests_ms": "ms",
        "trace.overhead_s": "s",
        "trace.untraced_pass_s": "s",
    })
    return units


# Per-layer counts that must repeat exactly between two traced passes.
EXACT_COUNTS = [
    name for name, unit in per_layer_units().items()
    if unit == "count" and name != "probe.peak_in_flight"
] + ["probe.round_verdicts", "probe.viable_verdicts"]


# -- importing the package and building a workload --------------------------


def import_streamres():
    package = SRC / "streamres"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no streamres sources under {SRC.name}/ of {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import streamres
    import streamres.cli

    if Path(streamres.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported streamres from {streamres.__file__}, not from {package}")
    return streamres


def build(workload: str, seed: int, max_in_flight: int):
    sr = import_streamres()
    module, cls = WORKLOADS[workload]
    return getattr(importlib.import_module(module), cls)(sr, seed, max_in_flight)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- set-up time, measured in fresh interpreters ----------------------------


def setup_child(workload: str, seed: int) -> int:
    wl = build(workload, seed, nproc())
    try:
        print("ready", flush=True)
    finally:
        wl.close()
    from speed import calibration_cost

    print(calibration_cost(), flush=True)  # after the timed region, on the vCPU it ran on
    return 0


def time_setup(workload: str, seed: int, importtime: bool) -> tuple[float, float, str]:
    """Seconds from spawning an interpreter to its workload inputs being built.

    The child is pinned to one vCPU and, once its set-up is timed, times the
    speed calibration (speed.py) there.  Returns the wall time, the same time
    at reference speed, and the child's stderr.  Each vCPU of this shared host
    changes speed on its own: unpinned, a child's set-up ran on whichever vCPU
    was free, and wall-time medians of ten runs moved by up to 38% between two
    sets of runs taken minutes apart.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(Path(__file__)),
           "--setup-child", "--workload", workload, "--seed", str(seed)]
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})  # inherited by the child
    try:
        started = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    finally:
        os.sched_setaffinity(0, affinity)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        rest, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up child did not finish") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode}):\n{stderr}")
    from speed import REFERENCE_US

    return elapsed, elapsed * REFERENCE_US * 1e-6 / float(rest), stderr


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time of top-level modules from ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, module = line.split("|")
            if cumulative.strip().isdigit():
                times[module.strip()] = int(cumulative) / 1000.0
    return times


# -- passes --------------------------------------------------------------------


def run_passes(wl, seconds: float, setup, setup_reps: int, tracer=None, speed=None):
    """A warm-up pass, then measured passes until the next would overrun ``seconds``.

    The warm-up pass pays first-call costs (lazy imports, thread and allocator
    start-up); it is checked like every pass but not timed.  Measured passes
    are untraced, or, with a tracer, untraced and traced in turn, at least
    MIN_PASSES of each.  Between passes, ``setup()`` is timed ``setup_reps``
    times, spread over the run: this host's speed changes every few seconds,
    so set-ups timed back to back all land in one speed and their median
    moved by 15-20% from run to run.  Returns the passes and the set-ups.
    """
    deadline = perf_counter() + seconds
    passes: list[dict] = []
    setups: list = []
    last_setup = -seconds
    while True:
        kind = "warm-up" if not passes else "traced" if tracer and len(passes) % 2 == 0 else "timed"
        if kind == "traced":
            tracer.reset()
            tracer.install()
        started = perf_counter()
        try:
            result = wl.run_pass(speed)
        finally:
            if kind == "traced":
                tracer.uninstall()
        result["wall_s"] = perf_counter() - started
        result["kind"] = kind
        if kind == "traced":
            result["layers"] = layer_snapshot(tracer)
        if not passes:
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(result)
        if len(setups) < setup_reps and perf_counter() - last_setup >= seconds / setup_reps:
            last_setup = perf_counter()
            setups.append(setup())
        kinds = ("timed", "traced") if tracer else ("timed",)
        if any(sum(p["kind"] == k for p in passes) < MIN_PASSES for k in kinds):
            continue
        typical = statistics.median(p["wall_s"] for p in passes[1:])
        if perf_counter() + typical > deadline:
            while len(setups) < setup_reps:
                setups.append(setup())
            return passes, setups


def layer_snapshot(tracer) -> dict[str, float]:
    calls, busy, own = tracer.calls, tracer.busy, tracer.self_time
    out = {
        "prospect.switch_score.calls": calls["prospect.switch_score"],
        "prospect.switch_score.busy_s": busy["prospect.switch_score"],
        "viability.substream.calls": calls["viability.substream"],
        "viability.substream.busy_s": busy["viability.substream"],
        "probe.probe_all.calls": calls["probe.probe_all"],
        "probe.probe_all.self_s": own["probe.probe_all"],
        "probe.transport.calls": calls["probe.transport"],
        "probe.transport.busy_s": busy["probe.transport"],
        "probe.empirical_first_success_rounds.busy_s": busy["probe.empirical_first_success_rounds"],
        "analytics.busy_s": tracer.layer_busy["analytics"],
        "cli.run_verify.self_s": own["cli.run_verify"],
    }
    for name in RESERVOIR_METHODS:
        out[f"reservoir.{name}.calls"] = calls[f"reservoir.{name}"]
        out[f"reservoir.{name}.busy_s"] = busy[f"reservoir.{name}"]
    for name in SIMULATORS:
        out[f"simulator.{name}.busy_s"] = busy[f"simulator.{name}"]
        out[f"simulator.{name}.self_s"] = own[f"simulator.{name}"]
    kinds: dict[str, int] = {}
    retained = 0
    for reservoir in tracer.reservoirs:
        events = reservoir.events
        retained += len(events) + len(reservoir.transitions)
        for event in events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
    out["reservoir.events_retained"] = retained
    for name, kind in EVENT_COUNTS.items():
        out[f"reservoir.{name}"] = kinds.get(kind, 0)
    verdicts = [r for results, _, _ in tracer.rounds for r in results]
    viable = sum(r.viable for r in verdicts)
    out["probe.round_verdicts"] = len(verdicts)
    out["probe.viable_verdicts"] = viable
    out["probe.viable_ratio"] = viable / len(verdicts) if verdicts else 0.0
    out["probe.timeouts"] = sum(r.timed_out for r in verdicts)
    out["probe.overrun_ms"] = max(
        [max(0.0, elapsed * 1000.0 - timeout) for _, elapsed, timeout in tracer.rounds], default=0.0
    )
    return out


# -- reporting -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args, usable_cores: int, passes: list[dict], samples: int, setup_samples: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "nproc": usable_cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "requests": version("requests"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "passes": len(passes),
        "samples": samples,
        "setup_samples": setup_samples,
    }


def line(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name} = {value!r} {unit} ({note})")


def end_to_end(wl, workload: str, setups, passes, speed) -> dict[str, tuple[float, str, str]]:
    import numpy as np

    timed = [p for p in passes if p["kind"] == "timed"]
    starts = [t for p in timed for t in p["op_starts"]]
    walls = [t for p in timed for t in p["op_walls"]]
    if speed and wl.block:
        # Each operation at the speed sampled right before and after its block.
        rates = speed.block_rates(
            np.concatenate([p["block_starts"] for p in timed]), np.concatenate([p["block_ends"] for p in timed])
        )
        normal = np.asarray(walls) * np.repeat(rates, wl.block)
    else:
        normal = speed.normalise(starts, walls) if speed else None

    def timing(name: str, q: int) -> tuple[float, str, str]:
        ops, basis = (normal, "time at reference speed") if name in wl.normalised else (walls, "wall time")
        return percentile(ops, q) * 1e3, "ms", f"p{q} {wl.op} {basis}, n={len(ops)}"

    return {
        "setup_s": (
            statistics.median(s for _, s, _ in setups), "s",
            f"median of {len(setups)} fresh interpreters at reference speed; wall median "
            f"{statistics.median(s for s, _, _ in setups)!r} s",
        ),
        "op_p50_ms": timing("op_p50_ms", 50),
        "op_tail_ms": timing("op_tail_ms", TAIL_PERCENTILE[workload]),
        "peak_rss_mb": (passes[0]["rss_mb"], "MB", "after the warm-up pass"),
    }


def per_layer(wl, setups, passes, problems: list[str]) -> dict[str, tuple[float, str, str]]:
    snaps = [p["layers"] for p in passes if p["kind"] == "traced"]
    for name in EXACT_COUNTS:
        seen = {snap[name] for snap in snaps}
        if len(seen) > 1:
            problems.append(f"count {name} differs between traced passes: {sorted(seen)}")
    units = per_layer_units()
    out = {}
    for name, unit in units.items():
        if name in snaps[0] and unit == "count":
            out[name] = (snaps[0][name], unit, f"per traced pass, equal in all {len(snaps)}")
        elif name in snaps[0]:
            value = statistics.median(snap[name] for snap in snaps)
            out[name] = (value, unit, f"per traced pass, median of {len(snaps)}")
    out["probe.peak_in_flight"] = (wl.peak_in_flight, "count", f"over all {len(passes)} passes")
    imports = [import_times_ms(stderr) for _, _, stderr in setups]
    for module in ("streamres", "requests"):
        value = statistics.median(t.get(module, 0.0) for t in imports)
        out[f"setup.import_{module}_ms"] = (
            value, "ms", f"cumulative -X importtime, median of {len(imports)} fresh interpreters"
        )
    timed = [p["wall_s"] for p in passes if p["kind"] == "timed"]
    traced = [p["wall_s"] for p in passes if p["kind"] == "traced"]
    untraced_s = statistics.median(timed)
    out["trace.untraced_pass_s"] = (untraced_s, "s", f"median of {len(timed)} untraced passes")
    out["trace.overhead_s"] = (
        statistics.median(traced) - untraced_s, "s", f"median of {len(traced)} traced passes minus the untraced median"
    )
    return {name: out[name] for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_streamres()  # fail before any child is spawned if the sources are missing
    traced = args.trace == 1
    reps = TRACE_SETUP_REPS if traced else SETUP_REPS

    def setup():
        return time_setup(args.workload, args.seed, importtime=traced)

    # Imported only now, so that a set-up child imports numpy through streamres.
    from speed import SpeedSampler

    usable_cores = nproc()  # read before a workload pins itself to one vCPU
    wl = build(args.workload, args.seed, usable_cores)
    speed = SpeedSampler(timer=wl.speed_timer) if wl.normalised and not traced else None
    try:
        with speed or contextlib.nullcontext():
            passes, setups = run_passes(wl, args.seconds, setup, reps, Tracer() if traced else None, speed)
    finally:
        wl.close()

    problems = list(wl.gates())
    if traced:
        metrics = per_layer(wl, setups, passes, problems)
    else:
        metrics = end_to_end(wl, args.workload, setups, passes, speed)
    for name, (value, unit, note) in metrics.items():
        line(name, value, unit, note)
    if not traced:
        wl.named_lines([p for p in passes if p["kind"] == "timed"], line)
        if speed:
            line("speed.slowdown", speed.slowdown(), "x", f"median of {len(speed.costs)} calibrations over the reference")

    # A replaying workload runs the same seeded operations in every pass, and
    # its gates() fail the run unless every pass ends alike, so its operations
    # are counted once: attempted and failed then depend on the seed alone, not
    # on how many passes fit in --seconds.
    counted = passes[:1] if wl.replays else passes
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(f"{'correct' if not problems else 'INCORRECT'}: {failed} of {attempted} operations failed")
    samples = sum(len(p["op_walls"]) for p in passes if p["kind"] == "timed")
    print("provenance " + json.dumps(provenance(args, usable_cores, passes, samples, len(setups))))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
