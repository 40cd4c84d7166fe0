"""Span tracer that wraps streamres' public entry points from outside.

Every wrapped call becomes a span with a name (``layer.entry``), a start, an
end and a parent: the enclosing span on the same thread, or, for calls made
on a ``probe_all`` pool thread, the ``probe_all`` span that started the pool.
Per span name the tracer keeps the call count, the busy time (outermost
calls only, so recursion is not counted twice) and the self time (duration
minus the union of the child spans' intervals, which may overlap when a
round runs probes in parallel).  Per layer it keeps the busy time of the
outermost span of that layer.

Nothing inside the package is edited: ``install`` replaces the module and
class attributes that hold each entry point and ``uninstall`` puts the
originals back, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, function or Class.method, span name) of every traced entry point;
# the public closed forms of streamres.analytics are added as analytics.<name>.
RESERVOIR_METHODS = ("run_health_cycle", "refill", "evaluate_upgrade", "on_active_failure", "reacquire", "sprint_fill")
SIMULATORS = ("run_depletion", "run_speedup_empirical", "run_monotonicity", "run_thrash")
ENTRY_POINTS = [
    ("streamres.prospect", "switch_score", "prospect.switch_score"),
    ("streamres.viability", "Rng.substream", "viability.substream"),
    ("streamres.probe", "probe_all", "probe.probe_all"),
    ("streamres.probe", "SimTransport.probe", "probe.transport"),
    ("streamres.probe", "HttpTransport.probe", "probe.transport"),
    ("streamres.probe", "empirical_first_success_rounds", "probe.empirical_first_success_rounds"),
    *[("streamres.reservoir", f"Reservoir.{name}", f"reservoir.{name}") for name in RESERVOIR_METHODS],
    *[("streamres.simulator", name, f"simulator.{name}") for name in SIMULATORS],
    ("streamres.cli", "run_verify", "cli.run_verify"),
]


class _Span:
    __slots__ = ("name", "layer", "parent", "children")

    def __init__(self, name: str, layer: str, parent: "_Span | None") -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Collects spans for one traced pass; ``reset`` starts the next one."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent: _Span | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.layer_busy: defaultdict[str, float] = defaultdict(float)
        # Outputs the per-layer counters are derived from.
        self.reservoirs: list[object] = []
        self.rounds: list[tuple[list[object], float, float]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span: _Span, start: float, end: float) -> None:
        duration = end - start
        outer_name = outer_layer = True
        ancestor = span.parent
        while ancestor is not None:
            outer_name = outer_name and ancestor.name != span.name
            outer_layer = outer_layer and ancestor.layer != span.layer
            ancestor = ancestor.parent
        own = duration - _covered(span.children, start, end)
        with self._lock:
            self.calls[span.name] += 1
            self.self_time[span.name] += own
            if outer_name:
                self.busy[span.name] += duration
            if outer_layer:
                self.layer_busy[span.layer] += duration
            if span.parent is not None:
                span.parent.children.append((start, end))

    def wrap(self, fn, name: str, after=None, pool: bool = False):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            span = _Span(name, layer, parent)
            stack.append(span)
            if pool:
                outer_pool, self._pool_parent = self._pool_parent, span
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if pool:
                    self._pool_parent = outer_pool
                stack.pop()
                self._close(span, start, end)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return traced

    # -- hooks that keep the outputs counters are derived from ---------------

    def _after_sprint_fill(self, args, kwargs, result, elapsed) -> None:
        if result is not None:
            self.reservoirs.append(result)

    def _probe_all_hook(self, signature: inspect.Signature):
        def after(args, kwargs, result, elapsed) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.rounds.append((result, elapsed, bound.arguments["timeout_ms"]))

        return after

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every streamres module attribute bound to original at replacement."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("streamres"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        analytics = sys.modules["streamres.analytics"]
        closed_forms = [
            ("streamres.analytics", attr, f"analytics.{attr}")
            for attr in analytics.__all__
            if inspect.isfunction(getattr(analytics, attr))
        ]
        for module_name, attr, name in ENTRY_POINTS + closed_forms:
            module = sys.modules[module_name]
            if "." not in attr:
                original = getattr(module, attr)
                if attr == "probe_all":
                    hook = self._probe_all_hook(inspect.signature(original))
                    wrapper = self.wrap(original, name, after=hook, pool=True)
                else:
                    wrapper = self.wrap(original, name)
                self._replace_everywhere(original, wrapper)
                continue
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):  # Reservoir.sprint_fill
                wrapper = classmethod(self.wrap(original.__func__, name, after=self._after_sprint_fill))
            else:
                wrapper = self.wrap(original, name)
            self._patches.append((cls, method, original))
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
