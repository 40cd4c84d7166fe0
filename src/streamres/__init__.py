"""streamres: a k-slot reservoir of verified streams.

Acquire candidate streams concurrently, keep the best k alive as verified
standbys, refill lazily as they fail, and switch the active stream only when
a prospect-weighted score says the upgrade is worth the interruption.  Ships
with closed-form reliability analytics, seeded Monte Carlo experiments, and
a CLI verification registry.

Each module's ``__all__`` is its public API, and the package re-exports all
of them.
"""

from typing import TYPE_CHECKING

from . import analytics, probe, prospect, reservoir, simulator, viability
from .analytics import *  # noqa: F403
from .probe import *  # noqa: F403
from .prospect import *  # noqa: F403
from .reservoir import *  # noqa: F403
from .simulator import *  # noqa: F403
from .viability import *  # noqa: F403

if TYPE_CHECKING:
    from .cli import main
    from .registry import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

# Loaded on first access (PEP 562), so `import streamres` loads neither the
# registry nor the CLI, and `python -m streamres.cli` does not find the CLI
# module already imported by its own package.
_REGISTRY_NAMES = ("CheckResult", "VerifyReport", "run_verify")


def __getattr__(name: str) -> object:
    if name in _REGISTRY_NAMES:
        from . import registry

        return getattr(registry, name)
    if name == "main":
        from . import cli

        return cli.main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *analytics.__all__,
    *probe.__all__,
    *prospect.__all__,
    *reservoir.__all__,
    *simulator.__all__,
    *viability.__all__,
    *_REGISTRY_NAMES,
    "main",
    "__version__",
]
