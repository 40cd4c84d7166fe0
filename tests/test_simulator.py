"""Monte Carlo experiment harness: conventions, determinism, known limits."""

import hashlib

import numpy as np
import pytest

from streamres import simulator
from streamres.analytics import expected_max_exponential, harmonic_number
from streamres.simulator import (
    DepletionConfig,
    DepletionResult,
    MonotonicityConfig,
    run_depletion,
    run_monotonicity,
    run_thrash,
)
from streamres.viability import TRIAL_BLOCK, Rng

PROVIDERS = ((360, 0.3), (720, 0.5), (1080, 0.7), (2160, 0.9))


class TestDepletionConfig:
    def test_rate_count_must_match_slots(self):
        with pytest.raises(ValueError):
            DepletionConfig(2, (0.1,))

    def test_refill_rates_are_probabilities(self):
        with pytest.raises(ValueError):
            DepletionConfig(1, (1.5,), refill=True)
        DepletionConfig(1, (1.5,), refill=False)  # rates, not probabilities

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            DepletionConfig(1, (0.0,))


class TestRunDepletion:
    def test_certain_failure_depletes_at_step_one(self):
        config = DepletionConfig(1, (1.0,), horizon=50, trials=200, refill=True)
        result = run_depletion(config, Rng(1))
        assert result.mean == 1.0
        assert result.stderr == 0.0

    def test_censoring_at_horizon(self):
        config = DepletionConfig(1, (1e-9,), horizon=25, trials=200, refill=True)
        result = run_depletion(config, Rng(2))
        assert result.mean == 25.0

    def test_single_slot_geometric_mean(self):
        config = DepletionConfig(1, (0.10,), horizon=100, trials=5000, refill=True)
        result = run_depletion(config, Rng(42))
        assert result.mean == pytest.approx(10.0, abs=4 * result.stderr)

    def test_refill_mean_matches_joint_failure_probability(self):
        rates = (0.10, 0.12, 0.15)
        config = DepletionConfig(3, rates, horizon=100, trials=5000, refill=True)
        result = run_depletion(config, Rng(42))
        # Dies only when all three fail in one step: p = prod(rates).
        p_all = float(np.prod(rates))
        expected = (1.0 - (1.0 - p_all) ** 100) / p_all
        assert result.mean == pytest.approx(expected, abs=4 * result.stderr)

    def test_no_refill_mean_matches_max_exponential(self):
        rates = (0.10, 0.12, 0.15)
        config = DepletionConfig(3, rates, horizon=400, trials=5000, refill=False)
        result = run_depletion(config, Rng(42))
        assert result.mean == pytest.approx(
            expected_max_exponential(rates), abs=4 * result.stderr
        )

    def test_workers_do_not_change_results(self):
        config = DepletionConfig(3, (0.1, 0.2, 0.3), horizon=60, trials=1000)
        serial = run_depletion(config, Rng(5), workers=1)
        threaded = run_depletion(config, Rng(5), workers=4)
        assert serial == threaded

    def test_same_rng_same_result(self):
        config = DepletionConfig(2, (0.2, 0.3), horizon=50, trials=500)
        assert run_depletion(config, Rng(6)) == run_depletion(config, Rng(6))


def reference_depletion(config, rng):
    """run_depletion one trial at a time, each from its own substream(i)."""
    rates = np.array(config.failure_rates)
    times = []
    for index in range(config.trials):
        gen = rng.substream(index)
        if config.refill:
            draws = gen.random((config.horizon, config.slot_count))
            hits = np.flatnonzero((draws < rates).all(axis=1))
            times.append(float(hits[0] + 1) if hits.size else float(config.horizon))
        else:
            lifetimes = gen.exponential(1.0 / rates)
            times.append(float(min(lifetimes.max(), config.horizon)))
    values = np.array(times)
    return DepletionResult(
        mean=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(config.trials)),
        trials=config.trials,
    )


class TestDepletionKeys:
    # 2000 steps x 2 slots fill 32 kB a trial: the draw budget splits each
    # block of TRIAL_BLOCK trials.  The drained run crosses a block edge.
    CONFIGS = {
        "refill": DepletionConfig(2, (0.05, 0.08), horizon=2000, trials=300),
        "drained": DepletionConfig(
            3, (0.10, 0.12, 0.15), horizon=30, trials=TRIAL_BLOCK + 44, refill=False
        ),
    }

    @pytest.mark.parametrize("mode", list(CONFIGS))
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_per_trial_reference(self, monkeypatch, mode, workers):
        config = self.CONFIGS[mode]
        rng = Rng(13).split(2)
        expected = reference_depletion(config, rng)
        spans = []
        substreams = Rng.substreams

        def recording(self, lo, hi):
            spans.append((lo, hi))
            return substreams(self, lo, hi)

        def forbidden(self, *path):
            raise AssertionError("run_depletion must not seed trials one at a time")

        monkeypatch.setattr(Rng, "substreams", recording)
        monkeypatch.setattr(Rng, "substream", forbidden)
        assert run_depletion(config, rng, workers=workers) == expected
        # The blocks tile the trials, each inside the draw budget.
        spans.sort()
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == config.trials
        row_floats = config.horizon * config.slot_count if config.refill else config.slot_count
        assert max(hi - lo for lo, hi in spans) * 8 * row_floats <= simulator._DRAW_BYTES
        if config.refill:
            assert len(spans) > -(-config.trials // TRIAL_BLOCK)


class TestMonotonicityConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotonicityConfig(())
        with pytest.raises(ValueError):
            MonotonicityConfig(((720, 1.5),))
        with pytest.raises(ValueError):
            MonotonicityConfig(PROVIDERS, tau=1.5)


class TestRunMonotonicity:
    def test_never_steps_down_and_reaches_top(self):
        config = MonotonicityConfig(PROVIDERS, steps=100, tau=0.3)
        for trial in range(25):
            summary = run_monotonicity(config, Rng(42), trial)
            assert summary.monotone_violations == 0
            assert summary.final_quality == 2160

    def test_strict_tau_still_reaches_top(self):
        config = MonotonicityConfig(PROVIDERS, steps=100, tau=0.7)
        for trial in range(25):
            summary = run_monotonicity(config, Rng(42), trial)
            assert summary.monotone_violations == 0
            assert summary.final_quality == 2160

    def test_deterministic_per_trial(self):
        config = MonotonicityConfig(PROVIDERS, steps=60, tau=0.3)
        assert run_monotonicity(config, Rng(9), 4) == run_monotonicity(
            config, Rng(9), 4
        )

    def test_trials_differ(self):
        config = MonotonicityConfig(PROVIDERS, steps=60, tau=0.3)
        runs = {run_monotonicity(config, Rng(9), t).convergence_step for t in range(30)}
        assert len(runs) > 1

    def test_single_certain_provider_converges_at_zero(self):
        config = MonotonicityConfig(((1080, 1.0),), steps=20, slot_count=1)
        summary = run_monotonicity(config, Rng(1), 0)
        assert summary.final_quality == 1080
        assert summary.convergence_step == 0
        assert summary.switch_count == 0

    def test_trace_sink_collects_events(self):
        config = MonotonicityConfig(PROVIDERS, steps=30, tau=0.3)
        trace: list[str] = []
        run_monotonicity(config, Rng(3), 0, trace_sink=trace)
        assert trace
        assert trace[0].split("\t")[1] == "filled"


# Summaries and trace digests of 5000-step runs (Rng(9), trial 4), pinned
# from the one-random-call-per-use implementation; each run crosses many
# uniform chunks.
PINNED_RUNS = [
    (
        PROVIDERS, 0.3, 3,
        (0, 2160, 0, 0), 10037,
        "9bafc79d0b4ab382ab6631b912daf478e9d249484b17fe760a733ab5ab3b8cb4",
    ),
    (
        ((360, 0.95), (480, 0.9), (720, 0.6), (2160, 0.31)), 0.3, 2,
        (0, 2160, 29, 1), 5556,
        "c82d5f99ec11be84f43469c475bc3b3f75660965cc2018641e51153667c1a41e",
    ),
    (
        ((360, 0.95), (480, 0.9), (720, 0.6), (2160, 0.1)), 0.05, 3,
        (0, 2160, 139, 1), 10803,
        "18b93cfc2d4d3dc0a4d829608208ac060a7f90e7696758e276eff82ec6973b6a",
    ),
]


class TestMonotonicityPinned:
    @pytest.mark.parametrize("providers, tau, slots, summary, lines, digest", PINNED_RUNS)
    def test_long_run_matches_pinned_draws(self, providers, tau, slots, summary, lines, digest):
        config = MonotonicityConfig(providers, steps=5000, tau=tau, slot_count=slots)
        trace: list[str] = []
        result = run_monotonicity(config, Rng(9), 4, trace_sink=trace)
        assert (
            result.monotone_violations,
            result.final_quality,
            result.convergence_step,
            result.switch_count,
        ) == summary
        assert len(trace) == lines
        assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == digest


class TestRunThrash:
    def test_close_levels_never_switch(self):
        summary = run_thrash((1080, 1060, 1040, 1020, 1000), steps=100)
        assert summary.switch_count == 0
        assert summary.final_quality == 1000

    def test_wide_gap_switches_exactly_once(self):
        summary = run_thrash((360, 2160), steps=100)
        assert summary.switch_count == 1
        assert summary.final_quality == 2160

    def test_equal_fleet_never_switches(self):
        summary = run_thrash((720, 720, 720), steps=100)
        assert summary.switch_count == 0

    def test_no_downward_steps(self):
        summary = run_thrash((360, 720, 1080, 2160), steps=100)
        assert summary.monotone_violations == 0

    def test_trace_sink(self):
        trace: list[str] = []
        run_thrash((360, 2160), steps=10, trace_sink=trace)
        assert any("\tupgrade\t" in line for line in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_thrash((), steps=10)
        with pytest.raises(ValueError):
            run_thrash((720,), steps=0)


class TestHarmonicRatio:
    def test_equal_rate_reservoir_beats_single_by_harmonic_factor(self):
        # No-refill, equal rates: mean lifetime ratio approaches H_k.
        rate = 0.1
        horizon = 400
        single = run_depletion(
            DepletionConfig(1, (rate,), horizon=horizon, trials=6000, refill=False),
            Rng(11),
        )
        triple = run_depletion(
            DepletionConfig(3, (rate,) * 3, horizon=horizon, trials=6000, refill=False),
            Rng(12),
        )
        assert triple.mean / single.mean == pytest.approx(
            harmonic_number(3), rel=0.05
        )
