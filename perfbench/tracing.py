"""In-memory spans around the calls into each layer of the verifier.

:class:`Tracer` records one span per call: name, start, end, parent span
and request id.  :func:`instrument` installs timing wrappers around the
public functions of each layer, at the module attributes the pipeline
looks them up by, so a traced request runs exactly the code an untraced
one runs; the wrappers are removed when the block exits.  Engine counters
are captured from the objects those functions return (``RewriteStatistics``)
or fill in (``ReductionTrace``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    """Spans kept in memory; :meth:`self_times` aggregates them per name."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: str | None = None
        #: Engine objects captured per request id (see :func:`instrument`).
        self.captured: dict[str, dict] = defaultdict(dict)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "request": self.request,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function, on_call=None):
        """``function`` timed as span ``name``.

        ``on_call(captured, args, kwargs, result)`` runs after every call,
        with the current request's entry of :attr:`captured`.
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    if on_call is not None:
                        on_call(self.captured[self.request], args, kwargs,
                                result)
        return traced

    def self_times(self) -> dict[str, dict[str, float]]:
        """``{request: {span name: self seconds}}`` (duration minus children)."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        result: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            result[span["request"]][span["name"]] += own
        return result


def _capture_rewrite(captured, args, kwargs, result):
    if result is not None:
        captured.setdefault("rewrite_statistics", []).extend(result.statistics)


def _capture_reduction(captured, args, kwargs, result):
    trace = kwargs.get("trace", args[4] if len(args) > 4 else None)
    if trace is not None:
        captured["reduction_trace"] = trace


def _capture_gates(captured, args, kwargs, result):
    captured["gates"] = args[1].num_gates


#: ``(module, attribute, span name, capture hook)`` of every traced call.
#: Attributes are patched where the pipeline resolves them at call time:
#: the service and request modules import these functions inside their
#: methods, and the engine calls its rewriting/reduction imports through
#: its own module globals.
TRACE_POINTS = (
    ("repro.generators.multipliers", "generate_multiplier",
     "generators.generate", None),
    ("repro.circuit.verilog", "parse_verilog", "circuit.parse_verilog", None),
    ("repro.circuit.netlist:Netlist", "validate", "circuit.validate", None),
    ("repro.modeling.model:AlgebraicModel", "from_netlist",
     "modeling.model_build", _capture_gates),
    ("repro.verification.engine", "verify", "engine.verify", None),
    ("repro.verification.engine", "VanishingRules", "rewriting.vanishing_build",
     None),
    ("repro.verification.engine", "no_rewriting", "rewriting.pass",
     _capture_rewrite),
    ("repro.verification.engine", "fanout_rewriting", "rewriting.pass",
     _capture_rewrite),
    ("repro.verification.engine", "logic_reduction_rewriting",
     "rewriting.pass", _capture_rewrite),
    ("repro.verification.engine", "groebner_basis_reduction", "reduction",
     _capture_reduction),
    ("repro.certify", "build_certificate", "certify.build", None),
    ("repro.baselines.sat.miter", "sat_equivalence_check", "sat.cross_check",
     None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every :data:`TRACE_POINTS` entry for the duration of the block."""
    restore = []
    try:
        for target, attribute, name, hook in TRACE_POINTS:
            owner = _resolve(target)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    tracer.wrap(name, original.__func__, hook))
            else:
                replacement = tracer.wrap(name, original, hook)
            setattr(owner, attribute, replacement)
            restore.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
