"""Span tracing at the package's layer boundaries, from outside the package.

The benchmark does not edit the program: it swaps module attributes for
timing wrappers for the length of a traced call and restores them after.
A wrapper is only seen by callers that look the name up on the module at
call time, which is how the package calls across its modules (``from .x
import f`` binds ``f`` in the caller's namespace, so it is the caller's
attribute that is wrapped).  Spans are kept in memory; ``Tracer.spans``
is written out by the caller once the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "data", "priors", "distribution", "inference", "experiments")

# (module, attribute, layer the callee belongs to).  ``cli.main`` itself is
# the root span, opened by ``Tracer.call``.
BOUNDARIES = (
    ("yulesimon.cli", "loss_based_prior", "priors"),
    ("yulesimon.cli", "sample_posterior_continuous", "inference"),
    ("yulesimon.cli", "sample_posterior_discrete", "inference"),
    ("yulesimon.cli", "summarize", "inference"),
    ("yulesimon.cli", "run_coverage_study", "experiments"),
    ("yulesimon.data", "load_count_table", "data"),
    ("yulesimon.inference", "log_likelihood", "distribution"),
    ("yulesimon.priors", "jeffreys_log_unnormalized", "priors"),
    ("yulesimon.experiments", "sample", "distribution"),
    ("yulesimon.experiments", "sample_posterior_continuous", "inference"),
)


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass(slots=True)
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _op: int = 0

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, layer, self._op, parent, time.perf_counter()))
            index = len(self.spans) - 1
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span = self.spans[index]
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start

        return traced

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` (normally ``yulesimon.cli.main``) as the root span of
        the next operation, with every boundary in ``BOUNDARIES`` wrapped
        for its duration.  The root span's layer is the module ``fn`` lives
        in.  Operations are numbered from 0 in the spans' ``op`` field."""
        saved = []
        try:
            for module_name, attr, layer in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{module_name}.{attr}", layer))
            layer = fn.__module__.rpartition(".")[2]
            root = self._wrap(fn, f"{fn.__module__}.{fn.__qualname__}", layer)
            return root(*args, **kwargs)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op += 1

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """(self seconds, calls) per layer, summed over all operations."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for span in self.spans:
            totals[span.layer][0] += span.self_s
            totals[span.layer][1] += 1
        return {layer: (s, n) for layer, (s, n) in totals.items()}
