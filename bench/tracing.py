"""Per-layer spans for the traced run, recorded from the benchmark's own code.

``Tracer.install`` rebinds the public functions that ``run_pipeline`` calls,
in the modules that call them, to wrappers that record a span: name, start,
end and the span that was open when it began. No source file of the program
is edited, and ``uninstall`` restores the original functions. Spans stay in
memory for one operation; ``end_op`` turns them into per-layer figures for
that operation, using each span's self time (its duration minus the part
covered by its child spans).
"""

from __future__ import annotations

from time import perf_counter

from epcovar import analytics, engine, solver, views
from epcovar.errors import DegenerateError, InfeasibleError

# (module, attribute, span name); a function imported into several modules
# is rebound in each, so every call site records the same span
TARGETS = (
    (engine, "run_pipeline", "engine.pipeline"),
    (engine, "render_report", "engine.render"),
    (engine, "ingest_csv", "engine.ingest"),
    (engine, "fit_t_marginal", "estimation.fit_marginal"),
    (engine, "fit_t_copula", "estimation.fit_copula"),
    (engine, "generate_scenarios", "estimation.sample"),
    (engine, "compile_view", "views.compile"),
    (views, "compile_view", "views.compile"),
    (engine, "solve", "solver.solve"),
    (solver, "solve", "solver.solve"),
    (engine, "pool", "solver.pool"),
    (engine, "interpolated_quantile", "scenario.quantile"),
    (analytics, "covar_for_view", "analytics.covar"),
    (analytics, "delta_covar_view", "analytics.spillover"),
    (analytics, "bvn_cdf", "normal.bvn_cdf"),
    (engine, "bvn_cdf", "normal.bvn_cdf"),
)

# per-layer metrics, in the order BENCHMARK.json lists them (trace.overhead_ms
# is added by the caller, which also runs the untraced phase)
LAYER_METRICS = (
    ("engine.ingest_ms", "ms"),
    ("engine.pipeline_ms", "ms"),
    ("engine.render_ms", "ms"),
    ("estimation.fit_marginal_ms", "ms"),
    ("estimation.fit_copula_ms", "ms"),
    ("estimation.sample_ms", "ms"),
    ("views.compile_ms", "ms"),
    ("views.compile_calls", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.refuse_ms", "ms"),
    ("solver.pool_ms", "ms"),
    ("scenario.quantile_ms", "ms"),
    ("scenario.quantile_calls", "count"),
    ("analytics.covar_ms", "ms"),
    ("analytics.spillover_ms", "ms"),
    ("normal.bvn_cdf_ms", "ms"),
    ("normal.bvn_cdf_calls", "count"),
)
_COUNTED = {"views.compile", "scenario.quantile", "normal.bvn_cdf"}


class Tracer:
    """Records spans, and the posterior of every solved view for the checks."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index, info]
        self.solves: list[tuple] = []     # (view, panel, posterior weights)
        self._stack: list[int] = []
        self._compiled: dict[int, tuple] = {}
        self._saved: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            if original not in wrappers:
                wrappers[original] = self._wrap(name, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[original])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except (InfeasibleError, DegenerateError):
                span[4] = "refused"
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name == "solver.solve":
                span[4] = result.iterations
            self._capture(name, args, result)
            return result

        return traced

    def _capture(self, name, args, result) -> None:
        if name == "views.compile":
            # keep the constraint set alive so that its id stays unique
            self._compiled[id(result)] = (args[0], result)
        elif name == "solver.solve" and id(args[1]) in self._compiled:
            view = self._compiled[id(args[1])][0]
            self.solves.append((view, args[0], result.posterior.weights))

    def begin_op(self) -> None:
        self.spans.clear()
        self.solves = []
        self._compiled.clear()

    def end_op(self) -> dict[str, float]:
        """Per-layer figures of the operation since ``begin_op``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric, _ in LAYER_METRICS}
        for (name, start, end, _, info), covered in zip(self.spans, child_time):
            self_ms = (end - start - covered) * 1e3
            if name == "solver.solve":
                if info == "refused":
                    out["solver.refuse_ms"] += self_ms
                else:
                    out["solver.solve_ms"] += self_ms
                    out["solver.iterations"] += info or 0
                continue
            out[name + "_ms"] += self_ms
            if name in _COUNTED:
                out[name + "_calls"] += 1
        return out
