"""Per-layer timings of streamres, written as one JSON file.

    python tools/layers.py --runs 5 --out BENCH_14.json

Imports the package from the ``src`` directory next to this script.  One
run times each layer once, after a warm-up run that is not recorded:

- each registry section at the ``verify`` defaults (seed 42, 5000 trials:
  depletion, speedup, monotonicity, prospect), in s;
- one block of a T3 sweep trial's rows, as the trial reads it: a
  ``_uniform_rows`` block of the reference providers at 100 steps (202 rows
  of four uniforms, every row the trial can read) and its ``.tolist()``, in
  us, the mean over SWEEP_BLOCKS blocks;
- one reservoir maintain step (health cycle, refill of any vacancy,
  upgrade evaluation) on a 3-slot reservoir whose standbys keep failing,
  in us, the mean over MAINTAIN_STEPS steps;
- one maintain tick of a live session on ``SimTransport`` (health cycle
  probing each standby, refill from a 10-line round when a slot is vacant,
  upgrade evaluation) on a 3-slot reservoir, in us, the mean over
  MAINTAIN_STEPS ticks: the benchmark's ``session`` step without its
  provider outages;
- reading that reservoir's ``events`` after each block of READ_BLOCK such
  ticks, as the ``session`` workload reads its log (the whole log, sliced
  after the events already seen), in us per new event, the reads alone
  timed;
- ``switch_score``, in us per call, the mean over SCORE_CALLS calls;
- ``Rng.substream``, in us per stream, the mean over SUBSTREAMS streams,
  and the number of streams one ``run_verify`` at the defaults builds;
- the number of ``Reservoir.refill`` calls in that ``run_verify``; both
  counts are taken with the whole T3 sweep in this process, since a forked
  child's calls would go uncounted;
- one ``probe_all`` round over PROBE_CANDIDATES candidates on
  ``SimTransport``, in ms, the mean over PROBE_ROUNDS rounds;
- ``SimTransport.probe``, in us per probe, the mean over SIM_ROUNDS rounds
  that each probe SIM_IDS ids once on the calling thread;
- ``import streamres`` in a fresh interpreter, in ms.

Once per invocation, outside the timed runs, it also times the Tier-1
suite (``suite.tier1_s``): SUITE_RUNS runs of pytest over ``tests/`` in a
fresh interpreter at ``--hypothesis-seed=0``, in s of process wall time.
If a run fails, the file is still written, without ``suite.tier1_s`` and
with the tail of that run's output under ``tier1_failure`` (null when the
suite passes), and the script exits 1.

The file holds each layer's median, quartiles and samples, and the
machine's core count, the Python and numpy versions, the git commit of
the checkout and whether its tracked files differ from that commit (both
null outside one).  Wall times on a shared host move by
10-40% from minute to minute, so compare two commits only in runs made
back to back on one machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from streamres import registry, simulator  # noqa: E402
from streamres.probe import (  # noqa: E402
    ProbeResult,
    SimTransport,
    StreamCandidate,
    probe_all,
)
from streamres.prospect import switch_score  # noqa: E402
from streamres.reservoir import Reservoir  # noqa: E402
from streamres.viability import Rng  # noqa: E402

MIN_RUNS = 5
MAINTAIN_STEPS = 5000
SCORE_CALLS = 20000
SUBSTREAMS = 2000
SWEEP_BLOCKS = 2000
PROBE_CANDIDATES = 12
PROBE_ROUNDS = 20
SIM_IDS = 9
SIM_ROUNDS = 2222
TICK_FAILURE_PROB = 0.02  # the session workload's
READ_BLOCK = 200  # the session workload's ticks between two reads of the log
SUITE_RUNS = 3
# The Tier-1 command, at one fixed hypothesis seed so every run draws the
# same examples.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]


def _sections() -> dict[str, float]:
    rng = Rng(registry.DEFAULT_SEED)
    trials = registry.DEFAULT_TRIALS
    sections = {
        "depletion": lambda: registry._depletion(rng, trials),
        "speedup": lambda: registry._speedup(rng, trials),
        "monotonicity": lambda: registry._monotonicity(rng),
        "prospect": registry._prospect,
    }
    seconds = {}
    for name, section in sections.items():
        started = time.perf_counter()
        section()
        seconds[f"registry.{name}_s"] = time.perf_counter() - started
    return seconds


def _sweep_block_us() -> float:
    # A block as a T3 trial draws and reads it; at the registry's 100 steps
    # one block holds every row the trial can read.
    providers = len(registry.REFERENCE_PROVIDERS)
    gen = Rng(registry.DEFAULT_SEED).substream(0)
    started = time.perf_counter()
    for _ in range(SWEEP_BLOCKS):
        next(simulator._uniform_rows(gen, providers, 2 * (100 + 1))).tolist()
    return (time.perf_counter() - started) / SWEEP_BLOCKS * 1e6


def _maintain_step_us() -> float:
    # Four providers, best last.  Each step one of the two standbys fails
    # its check, so every step refills a vacancy; after the first step the
    # best stream is active and the upgrade evaluation keeps it.
    results = [
        ProbeResult(StreamCandidate(f"m{i}", f"p{i}", quality, f"sim://p{i}"), True, 10.0 * i)
        for i, quality in enumerate((360, 720, 1080, 2160))
    ]
    reservoir = Reservoir.sprint_fill(results[:1], capacity=3)
    step = 0

    def checker(slot) -> bool:
        return (step + slot.arrival) % 3 != 0

    started = time.perf_counter()
    for step in range(1, MAINTAIN_STEPS + 1):
        now = float(step)
        if reservoir.run_health_cycle(checker, now):
            reservoir.refill(results, now)
        reservoir.evaluate_upgrade(now)
    return (time.perf_counter() - started) / MAINTAIN_STEPS * 1e6


def _sim_session():
    """A 3-slot reservoir on SimTransport, with its health checker and round.

    Three providers x a 480/720/1080 ladder, and one line listed twice.
    """
    lines = [
        StreamCandidate(f"t{p}/{quality}", f"p{p}", quality, f"sim://p{p}/{quality}")
        for p in range(3)
        for quality in (480, 720, 1080)
    ]
    lines.append(lines[4])
    transport = SimTransport(Rng(registry.DEFAULT_SEED), failure_prob=TICK_FAILURE_PROB)

    def round_() -> list[ProbeResult]:
        return [transport.probe(candidate, 1e9) for candidate in lines]

    def checker(slot) -> bool:
        return transport.probe(slot.candidate, 1e9).viable

    return Reservoir.sprint_fill(round_(), capacity=3), checker, round_


def _sim_tick_us() -> float:
    reservoir, checker, round_ = _sim_session()
    # A full collection of the heap the earlier layers left costs about a
    # third of this layer's time: start from a clean one, so none lands
    # inside only some of the samples.
    gc.collect()
    started = time.perf_counter()
    for step in range(1, MAINTAIN_STEPS + 1):
        now = float(step)
        if reservoir.run_health_cycle(checker, now):
            reservoir.refill(round_(), now)
        reservoir.evaluate_upgrade(now)
    return (time.perf_counter() - started) / MAINTAIN_STEPS * 1e6


def _events_read_us() -> float:
    reservoir, checker, round_ = _sim_session()
    gc.collect()  # as for the sim tick
    seen = 0
    reading = 0.0
    for step in range(1, MAINTAIN_STEPS + 1):
        now = float(step)
        if reservoir.run_health_cycle(checker, now):
            reservoir.refill(round_(), now)
        reservoir.evaluate_upgrade(now)
        if step % READ_BLOCK == 0:
            started = time.perf_counter()
            new = reservoir.events[seen:]
            reading += time.perf_counter() - started
            seen += len(new)
    return reading / seen * 1e6


def _switch_score_us() -> float:
    started = time.perf_counter()
    for i in range(SCORE_CALLS):
        switch_score(720, 1080, i % 10 + 1)
    return (time.perf_counter() - started) / SCORE_CALLS * 1e6


def _substream_us() -> float:
    rng = Rng(registry.DEFAULT_SEED)
    started = time.perf_counter()
    for i in range(SUBSTREAMS):
        rng.substream(i)
    return (time.perf_counter() - started) / SUBSTREAMS * 1e6


def _calls_per_verify() -> dict[str, int]:
    # The Rng.substream and Reservoir.refill calls of one run_verify, all
    # made in this process: the counters do not reach a forked child.
    fork_pays, substream, refill = registry._fork_pays, Rng.substream, Reservoir.refill
    streams = refills = 0

    def counting_substream(self: Rng, *path: int):
        nonlocal streams
        streams += 1
        return substream(self, *path)

    def counting_refill(self: Reservoir, *args, **kwargs):
        nonlocal refills
        refills += 1
        return refill(self, *args, **kwargs)

    registry._fork_pays = lambda: False
    Rng.substream, Reservoir.refill = counting_substream, counting_refill
    try:
        registry.run_verify(registry.DEFAULT_SEED, registry.DEFAULT_TRIALS)
    finally:
        registry._fork_pays, Rng.substream, Reservoir.refill = fork_pays, substream, refill
    return {
        "viability.substreams_per_verify": streams,
        "reservoir.refill_calls_per_verify": refills,
    }


def _probe_round_ms() -> float:
    candidates = [
        StreamCandidate(f"c{i}", f"p{i}", 720, f"sim://p{i}") for i in range(PROBE_CANDIDATES)
    ]
    transport = SimTransport(Rng(registry.DEFAULT_SEED), failure_prob=0.2)
    started = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        probe_all(candidates, transport)
    return (time.perf_counter() - started) / PROBE_ROUNDS * 1e3


def _sim_probe_us() -> float:
    candidates = [StreamCandidate(f"s{i}", f"p{i}", 720, f"sim://p{i}") for i in range(SIM_IDS)]
    probe = SimTransport(Rng(registry.DEFAULT_SEED), failure_prob=0.2).probe
    started = time.perf_counter()
    for _ in range(SIM_ROUNDS):
        for candidate in candidates:
            probe(candidate, 1e9)
    return (time.perf_counter() - started) / (SIM_ROUNDS * SIM_IDS) * 1e6


def _import_ms() -> float:
    code = (
        "import time; started = time.perf_counter(); import streamres; "
        "print(time.perf_counter() - started)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return float(out.stdout) * 1e3


def _tier1_s() -> list[float]:
    """Process wall time of each of SUITE_RUNS Tier-1 runs; a failing run raises."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(SUITE_RUNS):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(f"Tier-1 suite failed:\n{done.stdout[-4000:]}")
    return samples


def one_run() -> dict[str, float]:
    return {
        **_sections(),
        "simulator.sweep_block_us": _sweep_block_us(),
        "reservoir.maintain_step_us": _maintain_step_us(),
        "reservoir.sim_tick_us": _sim_tick_us(),
        "reservoir.events_read_us": _events_read_us(),
        "prospect.switch_score_us": _switch_score_us(),
        "viability.substream_us": _substream_us(),
        **_calls_per_verify(),
        "probe.probe_all_round_ms": _probe_round_ms(),
        "probe.sim_probe_us": _sim_probe_us(),
        "setup.import_streamres_ms": _import_ms(),
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _commit() -> dict[str, object]:
    """HEAD, and whether tracked files differ from it (both null outside git)."""
    try:
        head = _git("rev-parse", "HEAD")
        changed = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(changed)}


def summary(samples: list[float]) -> dict[str, object]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=MIN_RUNS, help=f"timed runs, at least {MIN_RUNS}")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be >= {MIN_RUNS}")
    forked = registry._fork_pays()
    one_run()  # warm-up: lazy imports and first-call costs
    runs = [one_run() for _ in range(args.runs)]
    layers = {name: summary([run[name] for run in runs]) for name in runs[0]}
    failure = None
    try:
        layers["suite.tier1_s"] = summary(_tier1_s())
    except RuntimeError as exc:  # keep the timed layers, then fail
        failure = str(exc)
    report = {
        "machine": {
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "monotonicity_forked": forked,
            **_commit(),
        },
        "runs": args.runs,
        "layers": layers,
        "tier1_failure": failure,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, layer in report["layers"].items():
        print(f"{name} = {layer['median']:.6g} (q1 {layer['q1']:.6g}, q3 {layer['q3']:.6g})")
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
