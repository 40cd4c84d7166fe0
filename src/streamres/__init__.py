"""streamres: a k-slot reservoir of verified streams.

Acquire candidate streams concurrently, keep the best k alive as verified
standbys, refill lazily as they fail, and switch the active stream only when
a prospect-weighted score says the upgrade is worth the interruption.  Ships
with closed-form reliability analytics, seeded Monte Carlo experiments, and
a CLI verification registry.
"""

from typing import TYPE_CHECKING

from .analytics import (
    SpeedupScenario,
    batched_speedup,
    censored_depletion_mean,
    expected_max_exponential,
    expected_time_batched,
    expected_time_concurrent,
    harmonic_number,
    interruption_probability,
    utility_estimate,
)
from .probe import (
    HttpTransport,
    ProbeResult,
    SimTransport,
    StreamCandidate,
    probe_all,
    sort_results,
)
from .prospect import (
    DEFAULT_PARAMS,
    ProspectParams,
    confidence,
    switch_score,
    value,
    weight,
)
from .reservoir import (
    Reservoir,
    ReservoirEvent,
    ReservoirState,
    Slot,
)
from .simulator import (
    DepletionConfig,
    DepletionResult,
    MonotonicityConfig,
    TrialSummary,
    run_depletion,
    run_monotonicity,
    run_speedup_empirical,
    run_thrash,
)
from .viability import Rng

if TYPE_CHECKING:
    from .cli import main
    from .registry import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

# Loaded on first access (PEP 562), so `import streamres` loads neither the
# registry nor the CLI, and `python -m streamres.cli` does not find the CLI
# module already imported by its own package.
_REGISTRY_NAMES = frozenset({"CheckResult", "VerifyReport", "run_verify"})


def __getattr__(name: str) -> object:
    if name in _REGISTRY_NAMES:
        from . import registry

        return getattr(registry, name)
    if name == "main":
        from . import cli

        return cli.main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckResult",
    "DEFAULT_PARAMS",
    "DepletionConfig",
    "DepletionResult",
    "HttpTransport",
    "MonotonicityConfig",
    "ProbeResult",
    "ProspectParams",
    "Reservoir",
    "ReservoirEvent",
    "ReservoirState",
    "Rng",
    "SimTransport",
    "Slot",
    "SpeedupScenario",
    "StreamCandidate",
    "TrialSummary",
    "VerifyReport",
    "batched_speedup",
    "censored_depletion_mean",
    "confidence",
    "expected_max_exponential",
    "expected_time_batched",
    "expected_time_concurrent",
    "harmonic_number",
    "interruption_probability",
    "main",
    "probe_all",
    "run_depletion",
    "run_monotonicity",
    "run_speedup_empirical",
    "run_thrash",
    "run_verify",
    "sort_results",
    "switch_score",
    "utility_estimate",
    "value",
    "weight",
    "__version__",
]
