"""Monte Carlo experiment harness: conventions, determinism, known limits."""

import collections
import dataclasses
import hashlib
import math
import os
import signal
import threading
import warnings

import numpy as np
import pytest

from fuzzutil import run_fuzz_sequence
from streamres import registry, simulator
from streamres.analytics import (
    SpeedupScenario,
    batched_speedup,
    expected_max_exponential,
    harmonic_number,
    interruption_probability,
)
from streamres.reservoir import Reservoir
from streamres.simulator import (
    DepletionConfig,
    DepletionResult,
    MonotonicityConfig,
    TrialSummary,
    run_depletion,
    run_monotonicity,
    run_speedup_empirical,
    run_thrash,
)
from streamres.viability import Rng

PROVIDERS = ((360, 0.3), (720, 0.5), (1080, 0.7), (2160, 0.9))


class TestDepletionConfig:
    def test_failure_rates_must_be_non_empty(self):
        with pytest.raises(ValueError, match="at least one failure rate"):
            DepletionConfig(())

    def test_refill_rates_are_probabilities(self):
        with pytest.raises(ValueError):
            DepletionConfig((1.5,), refill=True)
        DepletionConfig((1.5,), refill=False)  # rates, not probabilities

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            DepletionConfig((0.0,))

    @pytest.mark.parametrize("field", ["horizon", "trials"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_count_below_one_raises(self, field, value):
        fields = {"failure_rates": (0.1,), field: value}
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            DepletionConfig(**fields)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    @pytest.mark.parametrize("refill", [True, False])
    def test_finite_rates(self, rate, refill):
        with pytest.raises(ValueError, match="finite"):
            DepletionConfig((0.1, rate), refill=refill)

    @pytest.mark.parametrize("value", [2.5, 3.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["horizon", "trials"])
    def test_non_integer_count_raises(self, field, value):
        fields = {"failure_rates": (0.1,), field: value}
        with pytest.raises(TypeError):
            DepletionConfig(**fields)

    def test_rates_are_copied_before_the_checks(self):
        # A caller's list changed after the checks cannot add a slot or an
        # unchecked rate, and the config hashes like any frozen one.
        rates = [0.1, 0.2]
        config = DepletionConfig(rates, trials=100)
        rates.append(7.0)
        assert config.failure_rates == (0.1, 0.2)
        assert hash(config) == hash(DepletionConfig((0.1, 0.2), trials=100))
        assert run_depletion(config, Rng(1)) == run_depletion(
            DepletionConfig((0.1, 0.2), trials=100), Rng(1)
        )


class TestRunDepletion:
    def test_certain_failure_depletes_at_step_one(self):
        config = DepletionConfig((1.0,), horizon=50, trials=200, refill=True)
        result = run_depletion(config, Rng(1))
        assert result.mean == 1.0
        assert result.stderr == 0.0

    def test_censoring_at_horizon(self):
        config = DepletionConfig((1e-9,), horizon=25, trials=200, refill=True)
        result = run_depletion(config, Rng(2))
        assert result.mean == 25.0

    def test_single_slot_geometric_mean(self):
        config = DepletionConfig((0.10,), horizon=100, trials=5000, refill=True)
        result = run_depletion(config, Rng(42))
        assert result.mean == pytest.approx(10.0, abs=4 * result.stderr)

    def test_refill_mean_matches_joint_failure_probability(self):
        rates = (0.10, 0.12, 0.15)
        config = DepletionConfig(rates, horizon=100, trials=5000, refill=True)
        result = run_depletion(config, Rng(42))
        # Dies only when all three fail in one step: p = prod(rates).
        p_all = float(np.prod(rates))
        expected = (1.0 - (1.0 - p_all) ** 100) / p_all
        assert result.mean == pytest.approx(expected, abs=4 * result.stderr)

    def test_no_refill_mean_matches_max_exponential(self):
        rates = (0.10, 0.12, 0.15)
        config = DepletionConfig(rates, horizon=400, trials=5000, refill=False)
        result = run_depletion(config, Rng(42))
        assert result.mean == pytest.approx(
            expected_max_exponential(rates), abs=4 * result.stderr
        )

    def test_same_rng_same_result(self):
        config = DepletionConfig((0.2, 0.3), horizon=50, trials=500)
        assert run_depletion(config, Rng(6)) == run_depletion(config, Rng(6))

    def test_tiny_joint_failure_censors_at_horizon(self):
        config = DepletionConfig((1e-3,) * 3, horizon=40, trials=600, refill=True)
        assert run_depletion(config, Rng(3)) == DepletionResult(40.0, 0.0, 600)


class ZeroUniforms:
    """A generator stub whose uniforms are all 0.0, so every partner is 1.0."""

    def random(self, shape):
        return np.zeros(shape)


class TestAntitheticEdges:
    @pytest.fixture(autouse=True)
    def zero_uniforms(self, monkeypatch):
        monkeypatch.setattr(Rng, "substream", lambda self, *path: ZeroUniforms())

    @pytest.mark.parametrize(
        "config, pair",
        [
            # u = 0 depletes at once; its partner u = 1 survives every step.
            (DepletionConfig((0.3, 0.4), horizon=30, trials=8), (1.0, 30.0)),
            (DepletionConfig((1.0,), horizon=30, trials=8), (1.0, 1.0)),
            # Lifetimes 0 and infinity, the latter censored.
            (
                DepletionConfig((0.1, 0.2, 0.3), horizon=30, trials=8, refill=False),
                (0.0, 30.0),
            ),
        ],
    )
    def test_zero_uniform_is_finite_and_silent(self, config, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = simulator._depletion_times(config, Rng(0))
            result = run_depletion(config, Rng(0))
        assert times.tolist() == list(pair) * 4
        # Every pair sums alike, so the pairs carry no spread.
        assert result == DepletionResult(sum(pair) / 2, 0.0, 8)

    @pytest.mark.parametrize("trials", [5, 259])
    def test_odd_trial_count_adds_one_lone_unit(self, trials):
        config = DepletionConfig((0.5,), horizon=9, trials=trials)
        result = run_depletion(config, Rng(0))
        times = np.array([1.0, 9.0] * (trials // 2) + [1.0])
        assert result.trials == trials
        assert result.mean == pytest.approx(times.mean(), rel=1e-15)
        # Identical pair sums leave only the lone trial's own variance.
        assert result.stderr == pytest.approx(
            np.sqrt(times.var(ddof=1)) / trials, rel=1e-12
        )

    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_fewer_than_two_pairs_have_no_stderr(self, trials):
        config = DepletionConfig((0.5,), horizon=9, trials=trials)
        assert run_depletion(config, Rng(0)).stderr == 0.0


def trial_reference(config, rng):
    """Depletion times trial by trial from the documented key and inversions."""
    q = math.prod(config.failure_rates)
    slots = len(config.failure_rates)
    width = 1 if config.refill else slots
    # One random() call for the whole run: row j feeds trials 2j and 2j + 1.
    rows = rng.substream(int(config.refill), slots).random(
        ((config.trials + 1) // 2, width)
    )
    times = []
    for index in range(config.trials):
        row = rows[index // 2]
        uniforms = row if index % 2 == 0 else 1.0 - row
        if config.refill:
            depleted = math.floor(math.log1p(-uniforms[0]) / math.log1p(-q)) + 1
        else:
            depleted = max(
                -math.log1p(-u) / rate for u, rate in zip(uniforms, config.failure_rates)
            )
        times.append(min(depleted, config.horizon))
    return np.array(times, dtype=float)


class TestDepletionKeys:
    CONFIGS = {
        "refill": DepletionConfig((0.3, 0.4), horizon=40),
        "drained": DepletionConfig((0.10, 0.12, 0.15), horizon=30, refill=False),
    }

    @pytest.mark.parametrize("mode", list(CONFIGS))
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_equals_per_trial_reference(self, monkeypatch, mode, chunks):
        # Full chunks of whole pairs, one row of width uniforms each, and then
        # an odd tail of 45 trials.
        config = self.CONFIGS[mode]
        width = 1 if config.refill else len(config.failure_rates)
        trials = (chunks - 1) * 2 * (simulator._UNIFORM_CHUNK // width) + 45
        config = dataclasses.replace(config, trials=trials)
        rng = Rng(13).split(2)
        expected = trial_reference(config, rng)
        paths = []
        substream = Rng.substream

        def recording(self, *path):
            paths.append(self.path + path)
            return substream(self, *path)

        monkeypatch.setattr(Rng, "substream", recording)
        result = run_depletion(config, rng)
        # One substream per run, keyed by (refill, slot count).
        assert paths == [(2, int(config.refill), len(config.failure_rates))]
        # numpy and math logarithms may differ in the last unit.
        times = simulator._depletion_times(config, rng)
        assert np.allclose(times, expected, rtol=1e-12, atol=0)
        assert result.mean == pytest.approx(expected.mean(), rel=1e-12)
        assert result.trials == config.trials

    @pytest.mark.parametrize("mode", list(CONFIGS))
    @pytest.mark.parametrize("chunk", [1, 7, 10**6])
    def test_uniform_chunk_size_changes_no_draw(self, monkeypatch, mode, chunk):
        # A chunk of 1 or 7 uniforms rounds up to one whole row; 10**6 holds
        # the whole run.  The odd count ends on a lone trial.
        config = dataclasses.replace(self.CONFIGS[mode], trials=2001)
        reference = simulator._depletion_times(config, Rng(17))
        monkeypatch.setattr(simulator, "_UNIFORM_CHUNK", chunk)
        assert simulator._depletion_times(config, Rng(17)).tobytes() == reference.tobytes()


class TestUniformRows:
    @pytest.mark.parametrize(
        "width, rows",
        [
            (4, 1000),  # 3 blocks of 256 rows, then 232
            (3, 2 * (simulator._UNIFORM_CHUNK // 3) + 5),
            (simulator._UNIFORM_CHUNK + 1, 3),  # one row per block
            (2, 1),
            (simulator._UNIFORM_CHUNK + 1, 1),
        ],
    )
    def test_blocks_are_one_long_draw(self, width, rows):
        blocks = list(simulator._uniform_rows(Rng(5).substream(1), width, rows))
        per_block = max(1, simulator._UNIFORM_CHUNK // width)
        # Whole rows, full blocks but the last, which may be shorter.
        assert [len(block) for block in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= per_block
        drawn = np.concatenate(blocks)
        expected = Rng(5).substream(1).random((rows, width))
        assert drawn.shape == expected.shape
        assert drawn.tobytes() == expected.tobytes()


class TestDepletionLaw:
    TRIALS = 20_000

    def binomial_error(self, prob):
        return math.sqrt(prob * (1.0 - prob) / self.TRIALS)

    def test_refilled_pmf_is_geometric(self):
        rates = (0.5, 0.6)
        q = math.prod(rates)
        config = DepletionConfig(rates, horizon=50, trials=self.TRIALS)
        times = simulator._depletion_times(config, Rng(21))
        for t in range(1, 6):
            exact = q * (1.0 - q) ** (t - 1)
            # Binomial error; antithetic pairs only shrink it.
            assert abs(np.mean(times == t) - exact) <= 4 * self.binomial_error(exact)

    def test_drained_cdf_is_interruption_probability(self):
        rates = (0.10, 0.12, 0.15)
        config = DepletionConfig(rates, horizon=100, trials=self.TRIALS, refill=False)
        times = simulator._depletion_times(config, Rng(22))
        for t in (2.0, 5.0, 10.0, 20.0, 40.0):
            exact = interruption_probability(rates, t)
            assert abs(np.mean(times <= t) - exact) <= 4 * self.binomial_error(exact)


class TestMonotonicityConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotonicityConfig(())
        with pytest.raises(ValueError):
            MonotonicityConfig(((720, 1.5),))
        with pytest.raises(ValueError):
            MonotonicityConfig(PROVIDERS, tau=1.5)
        for quality in (0, -720):
            with pytest.raises(ValueError, match="quality must be positive"):
                MonotonicityConfig(((quality, 0.5), (1080, 0.5)))
        with pytest.raises(ValueError, match="steps must be >= 1"):
            MonotonicityConfig(PROVIDERS, steps=0)

    @pytest.mark.parametrize(
        "quality", [math.nan, math.inf, 1e309, 10**400], ids=["nan", "inf", "1e309", "10**400"]
    )
    def test_quality_past_the_largest_float_raises_at_construction(self, quality):
        # Trials build the candidates, so the config checks what a
        # StreamCandidate would refuse when it is made.
        with pytest.raises(
            ValueError, match="quality must be positive and at most the largest float"
        ):
            MonotonicityConfig(((quality, 0.5),))

    @pytest.mark.parametrize("slot_count", [2.5, 3.0, math.nan, math.inf])
    def test_non_integer_slot_count_raises(self, slot_count):
        with pytest.raises(TypeError):
            MonotonicityConfig(PROVIDERS, slot_count=slot_count)

    @pytest.mark.parametrize("slot_count", [0, -2])
    def test_slot_count_below_one_raises(self, slot_count):
        with pytest.raises(ValueError):
            MonotonicityConfig(PROVIDERS, slot_count=slot_count)

    @pytest.mark.parametrize("steps", [2.5, 3.0, math.nan, math.inf])
    def test_non_integer_steps_raises(self, steps):
        with pytest.raises(TypeError):
            MonotonicityConfig(PROVIDERS, steps=steps)


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

    def test_no_acquisition_reports_every_step_at_quality_zero(self):
        # No provider is ever up, so the trial never acquires a stream.
        config = MonotonicityConfig(((720, 0.0), (1080, 0.0)), steps=50)
        trace: list[str] = []
        summary = run_monotonicity(config, Rng(42), 0, trace_sink=trace)
        assert summary == TrialSummary(0, 0, 50, 0)
        assert trace == []

    def test_equal_configs_keep_their_own_candidates(self):
        # Int and float qualities make configs that compare and hash equal,
        # yet each trial names its own config's candidates, whichever ran
        # first.
        ints = MonotonicityConfig(((720, 0.9), (1080, 0.5)), steps=5)
        floats = MonotonicityConfig(((720.0, 0.9), (1080.0, 0.5)), steps=5)
        assert ints == floats and hash(ints) == hash(floats)
        named_by = [
            (ints, {"p0-720p", "p1-1080p"}),
            (floats, {"p0-720.0p", "p1-1080.0p"}),
        ]
        for order in (named_by, named_by[::-1]):
            for config, ids in order:
                trace: list[str] = []
                run_monotonicity(config, Rng(1), 0, trace_sink=trace)
                named = {line.split("\t")[2] for line in trace} - {"-"}
                assert named and named <= ids

    def test_replace_rebuilds_the_setup_and_repr_shows_the_fields(self):
        config = MonotonicityConfig(((720, 0.5), (1080, 0.9)), steps=5, tau=0.3)
        assert repr(config) == (
            "MonotonicityConfig(providers=((720, 0.5), (1080, 0.9)), "
            "steps=5, tau=0.3, slot_count=3)"
        )
        # At tau 0.7 only the 1080p provider may refill a vacancy; at tau
        # 0.3, on the same draws, the 720p provider refills one.
        strict = dataclasses.replace(config, tau=0.7)
        assert strict == MonotonicityConfig(config.providers, steps=5, tau=0.7)
        for tau_config, refills in ((strict, 0), (config, 1)):
            trace: list[str] = []
            run_monotonicity(tau_config, Rng(1), 0, trace_sink=trace)
            kinds_and_ids = [line.split("\t")[1:3] for line in trace]
            assert kinds_and_ids.count(["refill", "p0-720p"]) == refills

    def test_list_providers_are_kept_as_a_tuple(self):
        config = MonotonicityConfig([[720, 0.5], (1080, 0.9)], steps=5)
        assert config.providers == ((720, 0.5), (1080, 0.9))
        assert run_monotonicity(config, Rng(1), 0).final_quality == 1080

    def test_trace_sink_collects_events(self):
        config = MonotonicityConfig(PROVIDERS, steps=30, tau=0.3)
        trace: list[str] = []
        run_monotonicity(config, Rng(3), 0, trace_sink=trace)
        assert trace
        assert trace[0].split("\t")[1] == "filled"


# Summaries and trace digests of 5000-step runs (Rng(9), trial 4), pinned
# from the one-random-call-per-use implementation; each run crosses many
# uniform chunks.  The fourth run interleaves repeated qualities, so refill's
# latency order decides which of two equal-quality providers takes a
# vacancy, and the latencies of providers that are down shift that order if
# a refill round mispairs them.  The fifth, pinned from the 1024-uniform
# chunks, has 3 providers: 1024 is not a whole number of 3-uniform rows, so
# the rows fall on other block edges than the chunks did.
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
    (
        ((1080, 0.5), (720, 0.6), (1080, 0.7), (720, 0.8)), 0.3, 2,
        (0, 1080, 0, 0), 6332,
        "cfe536ffab9065b4a441f8396d37caa07b27657084e6bb02793dc703d3728ec5",
    ),
    (
        ((360, 0.9), (1080, 0.4), (720, 0.7)), 0.3, 2,
        (0, 1080, 20, 1), 5586,
        "88887d285a23e41959988ef7331b5d4610c75d03126ae4992fbdeed0bb88b4c9",
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

    def test_round_that_fills_then_displaces_is_pinned(self):
        # A refill round here fills a vacancy and then displaces the worst
        # standby, so the sweep must not count the displacement as a second
        # admission.
        providers = ((360, 0.95), (720, 0.6), (2160, 0.6), (1080, 0.6))
        config = MonotonicityConfig(providers, steps=300, tau=0.3, slot_count=3)
        trace: list[str] = []
        result = run_monotonicity(config, Rng(7), 18, trace_sink=trace)
        assert (
            result.monotone_violations,
            result.final_quality,
            result.convergence_step,
            result.switch_count,
        ) == (0, 2160, 1, 1)
        assert len(trace) == 673
        assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == (
            "ad7c79f1627ff01c1ec1fdb5b0175531f27fa56759ad32959595a11f03b8668c"
        )

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_uniform_chunk_size_changes_no_draw(self, monkeypatch, chunk):
        # 20 providers take one row of 20 uniforms at a time: a chunk of 1 or
        # 7 rounds up to one whole row per block, and a chunk of 4096 holds
        # 204 rows.
        providers = tuple((240 + 60 * i, 0.3 + 0.035 * i) for i in range(20))
        config = MonotonicityConfig(providers, steps=150, tau=0.5, slot_count=3)

        def trial():
            trace: list[str] = []
            result = run_monotonicity(config, Rng(9), 4, trace_sink=trace)
            return result, trace

        reference = trial()
        monkeypatch.setattr(simulator, "_UNIFORM_CHUNK", chunk)
        assert trial() == reference

    @pytest.mark.parametrize("chunk", [1, 7, 808, 10**6])
    @pytest.mark.parametrize(
        "providers, tau, key",
        [
            (registry.REFERENCE_PROVIDERS, 0.3, 31),
            (registry.REFERENCE_PROVIDERS, 0.7, 34),
            (((360, 0.95), (720, 0.6), (1080, 0.6), (2160, 0.35)), 0.3, None),
        ],
        ids=["T3-low", "T3-high", "slow"],
    )
    def test_sweep_block_size_changes_no_draw(self, monkeypatch, providers, tau, key, chunk):
        # The two T3 sweep configs, drawn as the registry draws them, and the
        # slow-convergence config as the CLI draws it.  Four providers at 100
        # steps read at most 202 rows, 808 uniforms: a chunk of 1 or 7 takes
        # one row per block, 808 exactly the trial's cap, and 10**6 is cut
        # down to that cap.
        config = MonotonicityConfig(providers, steps=100, tau=tau, slot_count=3)
        rng = Rng(42) if key is None else Rng(42).split(key)

        def sweep():
            runs = []
            for trial in range(10):
                trace: list[str] = []
                summary = run_monotonicity(config, rng, trial, trace_sink=trace)
                runs.append((repr(summary), "\n".join(trace).encode()))
            return runs

        reference = sweep()
        monkeypatch.setattr(simulator, "_UNIFORM_CHUNK", chunk)
        assert sweep() == reference

    def test_sweep_trial_draws_one_block_of_every_readable_row(self, monkeypatch):
        # A T3 trial of 100 steps reads at most 202 rows: it draws them in one
        # block, never a second one and never a row more.
        config = MonotonicityConfig(registry.REFERENCE_PROVIDERS, steps=100, tau=0.3)
        uniform_rows = simulator._uniform_rows
        drawn: list[int] = []

        def recording_rows(gen, width, rows):
            for block in uniform_rows(gen, width, rows):
                drawn.append(len(block))
                yield block

        monkeypatch.setattr(simulator, "_uniform_rows", recording_rows)
        for trial in range(20):
            drawn.clear()
            run_monotonicity(config, Rng(42).split(31), trial)
            assert drawn == [202]


# The two slow-convergence configs of the ROADMAP Baseline, whose best
# eligible provider is often down: their trials refill often and cross block
# edges.  One digest over every trial's summary and event log, pinned before
# the sweep's set-up moved into the config.
SLOW_CONVERGENCE = [
    (((360, 0.95), (720, 0.6), (1080, 0.6), (2160, 0.35)), 0.3),
    (((360, 0.95), (720, 0.6), (1080, 0.6), (2160, 0.45)), 0.5),
]


class TestSlowConvergencePinned:
    def test_every_trial_matches_pinned_draws(self):
        digest = hashlib.sha256()
        for providers, tau in SLOW_CONVERGENCE:
            config = MonotonicityConfig(providers, steps=300, tau=tau)
            rng = Rng(42)
            for trial in range(100):
                trace: list[str] = []
                s = run_monotonicity(config, rng, trial, trace_sink=trace)
                digest.update(
                    f"{s.monotone_violations} {s.final_quality} "
                    f"{s.convergence_step} {s.switch_count}\n".encode()
                )
                digest.update(("\n".join(trace) + "\n").encode())
        assert digest.hexdigest() == (
            "1f0b01ed37dc76231c8e7c07db0002a81ca693acabac2443c9f8ba72843f8da2"
        )


# Two providers that are rarely up, so trials acquire late (steps 0-29) and
# the acquisition loop runs many steps before the first maintain step.
# Summaries (violations, final quality, convergence step, switches) and one
# digest over every trial's event log, pinned before the T3 trial split into
# an acquisition loop and a maintenance loop.
LATE_ACQUISITION = MonotonicityConfig(((720, 0.05), (1080, 0.1)), steps=200, tau=0.0)
LATE_ACQUISITION_SUMMARIES = [
    (0, 1080, 4, 0), (0, 1080, 0, 0), (0, 1080, 5, 0), (0, 1080, 5, 0),
    (0, 1080, 183, 1), (0, 1080, 0, 0), (0, 1080, 121, 1), (0, 1080, 0, 0),
    (0, 1080, 75, 1), (0, 1080, 8, 0), (0, 720, 7, 0), (0, 1080, 15, 0),
    (0, 1080, 95, 1), (0, 1080, 4, 0), (0, 1080, 19, 1), (0, 1080, 19, 0),
    (0, 1080, 29, 0), (0, 1080, 10, 0), (0, 1080, 11, 0), (0, 1080, 141, 1),
]


class TestLateAcquisitionPinned:
    def test_every_trial_matches_pinned_draws(self):
        digest = hashlib.sha256()
        summaries, acquired = [], []
        for trial in range(20):
            trace: list[str] = []
            s = run_monotonicity(LATE_ACQUISITION, Rng(42), trial, trace_sink=trace)
            summaries.append(
                (s.monotone_violations, s.final_quality, s.convergence_step, s.switch_count)
            )
            acquired.append(int(trace[0].split("\t")[0]))
            digest.update(("\n".join(trace) + "\n").encode())
        assert summaries == LATE_ACQUISITION_SUMMARIES
        assert (min(acquired), max(acquired)) == (0, 29)
        assert digest.hexdigest() == (
            "eb9719667585ab08356148233acb44c3c41c6d059b5fd94aecda8ade2c13521d"
        )


class TestRegistrySweepWork:
    def test_sweep_runs_every_reservoir_call(self, monkeypatch):
        # The T3.1-T3.4 sweep is evidence only because every step of every
        # trial really runs the reservoir: pinned calls and events catch a
        # speedup that skips some of them.  The calls are counted in this
        # process, so the sweep runs here, not half of it in a child.
        monkeypatch.setattr(registry, "_fork_pays", lambda: False)
        calls: collections.Counter[str] = collections.Counter()
        built: list[Reservoir] = []

        def counting(name):
            original = getattr(Reservoir, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return wrapper

        for name in ("run_health_cycle", "refill", "evaluate_upgrade"):
            monkeypatch.setattr(Reservoir, name, counting(name))
        sprint_fill = Reservoir.sprint_fill.__func__
        init = Reservoir.__init__

        def counting_sprint_fill(cls, *args, **kwargs):
            calls["sprint_fill"] += 1
            return sprint_fill(cls, *args, **kwargs)

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Reservoir, "sprint_fill", classmethod(counting_sprint_fill))
        monkeypatch.setattr(Reservoir, "__init__", recording_init)
        registry._monotonicity(Rng(42))
        assert calls == {
            "sprint_fill": 202,
            "run_health_cycle": 19998,
            "refill": 7237,
            "evaluate_upgrade": 19998,
        }
        events = collections.Counter(e.kind for r in built for e in r.events)
        assert events == {
            "filled": 200,
            "health_pass": 12983,
            "health_fail": 8152,
            "refill": 8083,
            "upgrade": 22,
            "reacquire": 2,
        }


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def assert_no_child_left(fds: int) -> None:
    # No zombie to reap and no pipe end left open.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSweepProcesses:
    # Where a second CPU is free, the T3 sweep runs every other trial in a
    # forked child.  Both paths must give the same summaries, in job order,
    # and the child must leave nothing behind.

    @staticmethod
    def sweep(monkeypatch, seed: int, fork: bool):
        forks = 0
        runs: list[TrialSummary] = []
        real_fork, real_sweep = os.fork, registry._Sweep

        def counting_fork():
            nonlocal forks
            forks += 1
            return real_fork()

        class RecordingSweep(real_sweep):
            def runs(self):
                runs.extend(super().runs())
                return runs

        with monkeypatch.context() as patch:
            patch.setattr(registry, "_fork_pays", lambda: fork)
            patch.setattr(os, "fork", counting_fork)
            patch.setattr(registry, "_Sweep", RecordingSweep)
            actuals = registry._monotonicity(Rng(seed))
        assert forks == int(fork)
        return runs, actuals

    @pytest.mark.parametrize("seed", [42, 7])
    def test_forked_and_in_process_summaries_are_equal(self, monkeypatch, seed):
        fds = open_fds()
        forked = self.sweep(monkeypatch, seed, fork=True)
        in_process = self.sweep(monkeypatch, seed, fork=False)
        # Both configs, 100 trials each.
        assert len(forked[0]) == 2 * registry.SWEEP_SEEDS
        assert forked == in_process
        assert_no_child_left(fds)

    def test_child_trial_error_raises_in_parent(self, monkeypatch):
        def failing(config, rng, trial):
            if trial == 1:  # job 1: the child's first
                raise ValueError("trial 1 exploded")
            return run_monotonicity(config, rng, trial)

        monkeypatch.setattr(registry, "_fork_pays", lambda: True)
        monkeypatch.setattr(registry, "run_monotonicity", failing)
        fds = open_fds()
        with pytest.raises(RuntimeError, match="ValueError: trial 1 exploded"):
            registry._monotonicity(Rng(42))
        assert_no_child_left(fds)

    def test_child_that_dies_without_a_message_raises_in_parent(self, monkeypatch):
        def dying(config, rng, trial):
            if trial == 1:  # job 1: the child's first
                os._exit(3)
            return run_monotonicity(config, rng, trial)

        monkeypatch.setattr(registry, "_fork_pays", lambda: True)
        monkeypatch.setattr(registry, "run_monotonicity", dying)
        fds = open_fds()
        with pytest.raises(RuntimeError, match="child process failed"):
            registry._monotonicity(Rng(42))
        assert_no_child_left(fds)

    def test_parent_interrupt_kills_and_reaps_child(self, monkeypatch):
        def interrupted(config, rng, trial):
            if trial == 2 and config.tau == 0.7:  # job 102: the parent's
                raise KeyboardInterrupt
            return run_monotonicity(config, rng, trial)

        monkeypatch.setattr(registry, "_fork_pays", lambda: True)
        monkeypatch.setattr(registry, "run_monotonicity", interrupted)
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt):
            registry._monotonicity(Rng(42))
        assert_no_child_left(fds)

    @pytest.mark.parametrize(
        "section, error", [("_depletion", ValueError), ("_speedup", KeyboardInterrupt)]
    )
    def test_parent_section_error_kills_and_reaps_child(self, monkeypatch, section, error):
        # run_verify forks the sweep's child before the other sections run, so
        # a section that raises must end the child, not wait for it.
        children = []
        statuses = []
        real_fork, real_waitpid = os.fork, os.waitpid

        def recording_fork():
            pid = real_fork()
            children.append(pid)
            return pid

        def recording_waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses.append(reaped)
            return reaped

        def failing(*args):
            raise error(f"{section} exploded")

        monkeypatch.setattr(registry, "_fork_pays", lambda: True)
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        monkeypatch.setattr(registry, section, failing)
        fds = open_fds()
        with pytest.raises(error, match=f"{section} exploded"):
            registry.run_verify(seed=42, trials=5000)
        monkeypatch.setattr(os, "waitpid", real_waitpid)
        # Killed, not waited for: its 100 trials take far longer than a
        # section that raises at once.
        [(pid, status)] = statuses
        assert children == [pid]
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert_no_child_left(fds)

    @pytest.mark.parametrize("seed, trials", [(42, 5000), (7, 300)])
    def test_verify_records_equal_forked_and_in_process(self, monkeypatch, seed, trials):
        reports = {}
        fds = open_fds()
        for fork in (True, False):
            monkeypatch.setattr(registry, "_fork_pays", lambda: fork)
            reports[fork] = registry.run_verify(seed=seed, trials=trials)
        assert reports[True].forked and not reports[False].forked
        assert reports[True].records() == reports[False].records()
        assert_no_child_left(fds)

    def test_failed_fork_runs_every_trial_here(self, monkeypatch):
        expected = self.sweep(monkeypatch, 42, fork=False)

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(registry, "_fork_pays", lambda: True)
        monkeypatch.setattr(os, "fork", no_fork)
        fds = open_fds()
        assert registry._monotonicity(Rng(42)) == expected[1]
        assert open_fds() == fds

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        expected = self.sweep(monkeypatch, 42, fork=False)[1]

        def fail_fork():
            pytest.fail("forked while another Python thread was alive")

        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10.0,))
        waiter.start()
        try:
            monkeypatch.setattr(os, "fork", fail_fork)
            assert registry._monotonicity(Rng(42)) == expected
        finally:
            release.set()
            waiter.join(10.0)
        assert not waiter.is_alive()

    def test_no_fork_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not registry._fork_pays()


class TestSweepVacancies:
    # Five providers, the best often down, so standbys fail, vacancies open
    # and refill rounds both fill vacancies and displace full reservoirs.
    PROVIDERS = ((360, 0.95), (720, 0.6), (2160, 0.6), (1080, 0.6), (480, 0.9))

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    def test_refill_runs_exactly_when_a_slot_is_vacant(self, monkeypatch, capacity):
        # The sweep asks the reservoir for vacancies after each health cycle,
        # so a round runs only on a step that left a slot open.  A vacant step
        # whose up, eligible providers all hold a slot skips the round, so
        # every round that runs has a result it may admit.
        vacant_steps: list[tuple[int, float]] = []
        refill_steps: list[tuple[int, float]] = []
        rounds_with_new_ids: list[bool] = []
        displacing_rounds = 0
        health_cycle = Reservoir.run_health_cycle
        refill = Reservoir.refill

        def checking_health_cycle(self, checker, now):
            failures = health_cycle(self, checker, now)
            if len(self.slots) < self.capacity:
                vacant_steps.append((trial, now))
            return failures

        def checking_refill(self, results, now):
            nonlocal displacing_rounds
            vacancies = self.capacity - len(self.slots)
            held = {slot.candidate.id for slot in self.slots}
            rounds_with_new_ids.append(any(r.candidate.id not in held for r in results))
            admitted = refill(self, results, now)
            displacing_rounds += admitted > vacancies
            refill_steps.append((trial, now))
            return admitted

        monkeypatch.setattr(Reservoir, "run_health_cycle", checking_health_cycle)
        monkeypatch.setattr(Reservoir, "refill", checking_refill)
        config = MonotonicityConfig(
            self.PROVIDERS, steps=300, tau=0.3, slot_count=capacity
        )
        for trial in range(20):
            run_monotonicity(config, Rng(7), trial)
        assert set(refill_steps) <= set(vacant_steps)
        assert all(rounds_with_new_ids)
        # Only the active slot at capacity 1: nothing fails, nothing refills.
        assert bool(refill_steps) == (capacity > 1)
        # At capacity 2 a round's one vacancy takes its best result, and no
        # later, lower one can displace it.
        assert bool(displacing_rounds) == (capacity > 2)


# Event logs of 200-op fuzz sequences.  Each one refills, upgrades, drains
# and reacquires, so the digest pins every path that places a slot.
PINNED_FUZZ_RUNS = [
    (0, 169, "076d4c91be732ac07b4d5d648f87b38ca7b76d55dbec6392b3a8fdf656cf1c01"),
    (3, 234, "304554b56c22ce68a62fde3e63d783e6920c5da0ed280988a3705178fe01af5c"),
    (7, 183, "ad4ae5416dbee896fa4507941bbe1b1f5e8ac854429e429a280bbffe1f2ffa56"),
]


class TestReservoirTracePinned:
    @pytest.mark.parametrize("seed, lines, digest", PINNED_FUZZ_RUNS)
    def test_fuzz_sequence_matches_pinned_events(self, seed, lines, digest):
        trace = list(run_fuzz_sequence(seed, ops=200).trace_lines())
        assert len(trace) == lines
        assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == digest


class TestSummary:
    def test_reads_every_field_off_the_switch_points(self):
        # A step down (1080 -> 480), then a return to the first quality: the
        # final quality was first reached at the first point.
        switches = [(3, 720), (5, 1080), (9, 480), (12, 720)]
        assert simulator._summary(switches) == TrialSummary(1, 720, 3, 3)


def upgrade_lines(trace):
    return sum(line.split("\t")[1] == "upgrade" for line in trace)


class TestSwitchCountFromSwitchPoints:
    # Every switch point after the first is an upgrade, so the count read off
    # the points equals the upgrade events in the trace.
    @pytest.mark.parametrize(
        "levels, steps, upgrades",
        [(registry.THRASH_LEVELS, 100, 0), ((360, 2160, 1080, 720, 1440), 300, 1)],
    )
    def test_thrash(self, levels, steps, upgrades):
        trace: list[str] = []
        summary = run_thrash(levels, steps, trace_sink=trace)
        assert summary.switch_count == upgrade_lines(trace) == upgrades

    def test_monotonicity_trial_that_upgrades(self):
        providers = ((360, 0.95), (720, 0.6), (2160, 0.6), (1080, 0.6))
        config = MonotonicityConfig(providers, steps=300, tau=0.3, slot_count=3)
        trace: list[str] = []
        summary = run_monotonicity(config, Rng(7), 36, trace_sink=trace)
        assert summary.switch_count == upgrade_lines(trace) == 2


class TestRunThrash:
    def test_close_levels_never_switch(self):
        summary = run_thrash((1080, 1060, 1040, 1020, 1000), steps=100)
        assert summary.switch_count == 0
        assert summary.final_quality == 1000

    def test_wide_gap_switches_exactly_once(self):
        summary = run_thrash((360, 2160), steps=100)
        assert summary.switch_count == 1
        assert summary.final_quality == 2160

    @pytest.mark.parametrize(
        "qualities, steps, summary",
        [
            ((1080, 1060, 1040, 1020, 1000), 100, (0, 1000, 0, 0)),
            ((360, 2160, 1080, 720, 1440), 300, (0, 2160, 1, 1)),
            ((360, 2160), 100, (0, 2160, 1, 1)),
        ],
    )
    def test_full_summary_is_pinned(self, qualities, steps, summary):
        assert run_thrash(qualities, steps=steps) == TrialSummary(*summary)

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

    @pytest.mark.parametrize("steps", [2.5, 3.0, math.nan, math.inf])
    def test_non_integer_steps_raises(self, steps):
        with pytest.raises(TypeError):
            run_thrash((720, 1080), steps=steps)


class TestHarmonicRatio:
    def test_equal_rate_reservoir_beats_single_by_harmonic_factor(self):
        # No-refill, equal rates: mean lifetime ratio approaches H_k.
        rate = 0.1
        horizon = 400
        single = run_depletion(
            DepletionConfig((rate,), horizon=horizon, trials=6000, refill=False),
            Rng(11),
        )
        triple = run_depletion(
            DepletionConfig((rate,) * 3, horizon=horizon, trials=6000, refill=False),
            Rng(12),
        )
        assert triple.mean / single.mean == pytest.approx(
            harmonic_number(3), rel=0.05
        )


class CountingRng:
    """An Rng that records the path of every substream it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.paths = []

    def substream(self, *path):
        self.paths.append(path)
        return self.rng.substream(*path)


class TestEmpiricalFirstSuccess:
    def test_matches_closed_form(self):
        scenario = SpeedupScenario(12, 3, 0.4)
        trials = 40_000
        batched, concurrent = run_speedup_empirical(scenario, trials, Rng(42))
        assert batched / concurrent == pytest.approx(
            batched_speedup(scenario), abs=0.05
        )

    def test_means_match_geometric_expectations(self):
        trials = 40_000
        batched, concurrent = run_speedup_empirical(
            SpeedupScenario(8, 2, 0.5), trials, Rng(7)
        )
        # batched mean = (n/b) / (1 - f**b); concurrent = 1 / (1 - f**n)
        exp_batched = 4.0 / (1.0 - 0.25)
        exp_concurrent = 1.0 / (1.0 - 0.5**8)
        assert batched == pytest.approx(exp_batched, rel=0.02)
        assert concurrent == pytest.approx(exp_concurrent, rel=0.02)

    def test_reproducible(self):
        scenario = SpeedupScenario(12, 3, 0.4)
        a = run_speedup_empirical(scenario, 500, Rng(9))
        b = run_speedup_empirical(scenario, 500, Rng(9))
        assert a == b

    def test_one_substream_batched_first(self):
        # Every trial draws from substream(0): 257 uniforms for the batched
        # round counts, then 257 for the concurrent ones, each inverted.
        rng = CountingRng(Rng(5))
        batched, concurrent = run_speedup_empirical(SpeedupScenario(12, 3, 0.4), 257, rng)
        assert rng.paths == [(0,)]
        uniforms = Rng(5).substream(0).random(2 * 257).tolist()

        def mean_rounds(us, q):
            counts = [max(1, math.ceil(math.log1p(-u) / math.log(q))) for u in us]
            return sum(counts) / len(counts)

        assert batched == 4.0 * mean_rounds(uniforms[:257], 0.4**3)
        assert concurrent == mean_rounds(uniforms[257:], 0.4**12)

    def test_verify_draws_t24_from_one_substream(self, monkeypatch):
        # T2.4 runs 20 x 5000 = 100 000 trials at the defaults, all from
        # one substream.
        recorders = []

        def recorded(scenario, trials, rng):
            recorders.append(CountingRng(rng))
            return run_speedup_empirical(scenario, trials, recorders[-1])

        monkeypatch.setattr(registry, "run_speedup_empirical", recorded)
        registry.run_verify(seed=42, trials=5000)
        assert [recorder.paths for recorder in recorders] == [[(0,)]]

    @pytest.mark.parametrize("failure_prob", [0.0, 1e-200])
    def test_certain_success_takes_one_round(self, failure_prob):
        # 1e-200 ** 3 underflows to 0: every probe round succeeds.
        scenario = SpeedupScenario(12, 3, failure_prob)
        assert run_speedup_empirical(scenario, 1000, Rng(3)) == (4.0, 1.0)

    @pytest.mark.parametrize(
        "n, b, f", [(12, 3, 0.4), (20, 5, 0.3), (6, 1, 0.9)]
    )
    def test_round_counts_follow_the_geometric_law(self, n, b, f):
        # A scan whose rounds all fail with probability q takes a
        # Geometric(1 - q) number of rounds: mean 1/(1 - q), variance
        # q/(1 - q)**2.
        trials = 40_000
        batched, concurrent = run_speedup_empirical(SpeedupScenario(n, b, f), trials, Rng(11))
        for mean, q in ((batched * b / n, f**b), (concurrent, f**n)):
            stderr = math.sqrt(q / trials) / (1.0 - q)
            assert abs(mean - 1.0 / (1.0 - q)) <= 4.0 * stderr

    def test_validation(self):
        # n < b is refused by the scenario; a failure probability in
        # [0.999, 1) and a trial count below 1 by the estimate.
        with pytest.raises(ValueError):
            run_speedup_empirical(SpeedupScenario(3, 4, 0.1), 10, Rng(1))
        with pytest.raises(ValueError):
            run_speedup_empirical(SpeedupScenario(3, 1, 0.9995), 10, Rng(1))
        with pytest.raises(ValueError):
            run_speedup_empirical(SpeedupScenario(3, 1, 0.1), 0, Rng(1))

    @pytest.mark.parametrize("n, b, trials", [(12.5, 3, 100), (12, 3.0, 100), (12, 3, 100.0)])
    def test_fractional_counts_raise(self, n, b, trials):
        with pytest.raises(TypeError):
            run_speedup_empirical(SpeedupScenario(n, b, 0.4), trials, Rng(1))

    def test_nan_failure_prob_is_refused(self):
        # Inversion would turn a NaN into NaN round counts, not an error;
        # the scenario refuses it before the estimate runs.
        with pytest.raises(ValueError, match=r"failure_prob must lie in \[0, 1\)"):
            run_speedup_empirical(SpeedupScenario(12, 3, math.nan), 10, Rng(1))
