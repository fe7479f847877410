"""Per-layer spans for the indsem benchmark, recorded from outside the package.

`Tracer.install()` replaces public functions at every module attribute that
holds them, so calls that look the name up at call time (`engine.apply_T`
inside `engine`, `parse_program` imported into `cli`) go through a wrapper
that records a span: name, start, end, parent span, whether it returned, and
one size taken from its result.  `uninstall()` puts the originals back.  A
function missing from the package is skipped and reports zero calls.

Spans are kept per op.  Times are summed over every traced op; work counts
only over ops that ended before their deadline, so that they repeat exactly
for the same inputs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def _len_attr(attr):
    def size(args, result):
        return len(getattr(result, attr, None) or ())
    return size


def _len(args, result):
    return len(result) if result is not None else 0


def _new_atoms(args, result):
    # apply_T(program, params, current): heads not already known this round.
    return len(result.difference(args[2], args[1])) if len(args) >= 3 else 0


# (module, function, span name, size of the result recorded on the span)
TARGETS = (
    ("cli", "main", "cli", None),
    ("parser", "parse_program", "parser", None),
    ("parser", "parse_paramset", "parser", None),
    ("parser", "parse_query", "parser", None),
    ("meta", "assemble_meta", "meta", None),
    ("depgraph", "stratify_templates", "depgraph", _len_attr("strata")),
    ("components", "check_allowable", "components.allowable", None),
    ("engine", "least_fixpoint", "engine.fixpoint", _len_attr("atoms")),
    ("engine", "apply_T", "engine.tstep", _new_atoms),
    ("engine", "dump_model", "engine.dump", None),
    ("engine", "query", "engine.query", None),
    ("justify", "prove", "justify.prove", _len_attr("steps")),
    ("oracle", "preground", "oracle.preground", _len),
    ("oracle", "naive_least_closed", "oracle.closure", None),
)
# Generators whose yielded items are counted.
COUNTED = (("engine", "fired_instances", "engine.instances_fired"),)

PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.startup_ms", "ms"),
    ("parser.s", "s"),
    ("meta.s", "s"),
    ("depgraph.s", "s"),
    ("depgraph.strata", "count"),
    ("components.allowable_s", "s"),
    ("engine.fixpoint_s", "s"),
    ("engine.tstep_s", "s"),
    ("engine.rounds", "count"),
    ("engine.instances_fired", "count"),
    ("engine.atoms", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.dump_s", "s"),
    ("engine.query_s", "s"),
    ("justify.prove_s", "s"),
    ("justify.prove_self_s", "s"),
    ("justify.steps", "count"),
    ("justify.fixpoint_hit_ratio", "ratio"),
    ("oracle.preground_s", "s"),
    ("oracle.closure_s", "s"),
    ("oracle.rules", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    ok: bool = False
    size: int = 0


@dataclass
class OpTrace:
    spans: list = field(default_factory=list)
    counted: dict = field(default_factory=dict)
    completed: bool = False


PACKAGE = "indsem"


class Tracer:
    def __init__(self):
        self.ops: list = []
        self._current: OpTrace | None = None
        self._stack: list = []
        self._patched: list = []

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _patch(self, module: str, func: str, make_wrapper) -> None:
        home = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(home, func, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        for module, func, name, size in TARGETS:
            self._patch(module, func, lambda f, n=name, s=size: self._spanned(f, n, s))
        for module, func, name in COUNTED:
            self._patch(module, func, lambda f, n=name: self._counted(f, n))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, name, size):
        def wrapper(*args, **kwargs):
            op = self._current
            if op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(op.spans))
            op.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.ok = True
            if size is not None:
                span.size = size(args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            op = self._current
            for item in fn(*args, **kwargs):
                if op is not None:
                    op.counted[name] = op.counted.get(name, 0) + 1
                yield item

        return wrapper

    # -- per op -------------------------------------------------------------

    def begin(self) -> None:
        self._current = OpTrace()
        self._stack = []

    def end(self, completed: bool) -> None:
        self._current.completed = completed
        self.ops.append(self._current)
        self._current = None

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer times over all traced ops; work counts over completed ones."""
        incl: dict = {}
        self_s: dict = {}
        counts: dict = {"rounds": 0, "nested_fixpoints": 0,
                        "nested_fixpoints_returned": 0}
        sizes: dict = {}
        counted: dict = {}
        for op in self.ops:
            spans = op.spans
            child = [0.0] * len(spans)
            for s in spans:
                if s.parent >= 0:
                    child[s.parent] += s.end - s.start
            for i, s in enumerate(spans):
                dur = s.end - s.start
                self_s[s.name] = self_s.get(s.name, 0.0) + dur - child[i]
                if not self._has_ancestor(spans, i, s.name):
                    incl[s.name] = incl.get(s.name, 0.0) + dur
            if not op.completed:
                continue
            for i, s in enumerate(spans):
                if s.ok:
                    sizes[s.name] = sizes.get(s.name, 0) + s.size
                if s.name == "engine.tstep" and s.ok:
                    counts["rounds"] += 1
                if s.name == "engine.fixpoint" and self._has_ancestor(spans, i, "justify.prove"):
                    counts["nested_fixpoints"] += 1
                    counts["nested_fixpoints_returned"] += s.ok
            for k, v in op.counted.items():
                counted[k] = counted.get(k, 0) + v
        fired = counted.get("engine.instances_fired", 0)
        nested = counts["nested_fixpoints"]
        work = {
            "engine.rounds": counts["rounds"],
            "engine.instances_fired": fired,
            "engine.atoms": sizes.get("engine.fixpoint", 0),
            "engine.new_atoms": sizes.get("engine.tstep", 0),
            "depgraph.strata": sizes.get("depgraph", 0),
            "justify.steps": sizes.get("justify.prove", 0),
            "justify.nested_fixpoints": nested,
            "justify.nested_fixpoints_returned": counts["nested_fixpoints_returned"],
            "oracle.rules": sizes.get("oracle.preground", 0),
            "ops_completed": sum(op.completed for op in self.ops),
        }
        layer = {
            "cli.self_s": self_s.get("cli", 0.0),
            "parser.s": incl.get("parser", 0.0),
            "meta.s": incl.get("meta", 0.0),
            "depgraph.s": incl.get("depgraph", 0.0),
            "depgraph.strata": work["depgraph.strata"],
            "components.allowable_s": incl.get("components.allowable", 0.0),
            "engine.fixpoint_s": incl.get("engine.fixpoint", 0.0),
            "engine.tstep_s": incl.get("engine.tstep", 0.0),
            "engine.rounds": work["engine.rounds"],
            "engine.instances_fired": fired,
            "engine.atoms": work["engine.atoms"],
            "engine.useful_ratio": work["engine.new_atoms"] / fired if fired else 0.0,
            "engine.dump_s": incl.get("engine.dump", 0.0),
            "engine.query_s": incl.get("engine.query", 0.0),
            "justify.prove_s": incl.get("justify.prove", 0.0),
            "justify.prove_self_s": self_s.get("justify.prove", 0.0),
            "justify.steps": work["justify.steps"],
            "justify.fixpoint_hit_ratio":
                counts["nested_fixpoints_returned"] / nested if nested else 0.0,
            "oracle.preground_s": incl.get("oracle.preground", 0.0),
            "oracle.closure_s": incl.get("oracle.closure", 0.0),
            "oracle.rules": work["oracle.rules"],
            "trace.ops": len(self.ops),
        }
        return {"layer": layer, "work": work}

    @staticmethod
    def _has_ancestor(spans, i, name) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False
