"""Outside-in tracing for the benchmark's traced runs.

The tracer replaces selected public functions of the fluidsym modules by
wrappers that record a span per call.  Wrapping goes through the module
attributes (``fluidsym.expr.subs``), never through the package re-exports:
every internal call in fluidsym is written ``ex.subs``, ``rd.reduced_system``
and so on, or is a global lookup inside the defining module, so both see the
wrapper.  ``Expr`` methods are never wrapped; they run millions of times.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# (module, function) pairs that are wrapped.  Each appears in at least one
# per-layer metric; wrapping a function without a metric would only move
# time out of its caller's self time.
WRAPPED = (
    ("expr", "diff"),
    ("expr", "subs"),
    ("expr", "collect"),
    ("expr", "nullspace"),
    ("expr", "compile_exprs"),
    ("fluid", "build_system"),
    ("fluid", "quasilinear_time_form"),
    ("fluid", "quasilinear_space_form"),
    ("symmetry", "determining_equations"),
    ("symmetry", "solve_determining"),
    ("symmetry", "verify_symmetry"),
    ("symmetry", "span_equal"),
    ("reduction", "reduced_system"),
    ("reduction", "symbolic_check_reduction"),
    ("odesolve", "integrate"),
    ("odesolve", "find_critical"),
    ("odesolve", "compile_rhs"),
    ("odesolve", "default_events"),
    ("cli", "critical_run_factory"),
    ("liealg", "normalize_element"),
    ("liealg", "adjoint_action"),
    ("liealg", "structure_constants"),
)


def expr_terms(e) -> int:
    """Size of an expression: numerator plus denominator monomials."""
    return len(e.num) + len(e.den)


class Tracer:
    """Span recorder.  A span is (id, parent id, name, start, end, trace id);
    the trace id is the index of the benchmark task that caused it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.trace_id = None
        self.counters = {}
        self._originals = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [self._next_id, self._stack[-1][0] if self._stack else None,
                name, time.perf_counter(), None, self.trace_id]
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")
        self.spans.append(tuple(span))

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name in WRAPPED:
            mod = importlib.import_module(f"fluidsym.{mod_name}")
            original = getattr(mod, fn_name)
            setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))
            self._originals.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._originals):
            setattr(mod, fn_name, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if count else None
            if name == "odesolve.integrate":
                bound = self._count_rhs(bound)
                args, kwargs = bound.args, bound.kwargs
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            self.add(f"{name}.calls", 1)
            if count:
                count(self, bound.arguments, result, span[4] - span[3])
            return result

        return wrapper

    def _count_rhs(self, bound):
        rhs = bound.arguments["rhs"]

        def counted(t, u):
            self.counters["odesolve.integrate.rhs_evals"] = \
                self.counters.get("odesolve.integrate.rhs_evals", 0) + 1
            return rhs(t, u)

        bound.arguments["rhs"] = counted
        return bound

    # -- reduction of spans to per-layer metrics -------------------------------

    def self_times(self) -> dict:
        """Per-span self time: duration minus the durations of its children."""
        child = {}
        for sid, parent, _name, start, end, _tid in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {sid: (end - start) - child.get(sid, 0.0)
                for sid, _p, _n, start, end, _t in self.spans}

    def self_by_name(self) -> dict:
        out = {}
        selfs = self.self_times()
        for sid, _p, name, _s, _e, _t in self.spans:
            out[name] = out.get(name, 0.0) + selfs[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, tid in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "task": tid}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapped call costs beyond the call itself, measured on a
    no-op function; spans times this estimates the tracing overhead."""
    def noop(x):
        return x

    wrapped = Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for i in range(calls):
        noop(i)
    t1 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# -- counters read from arguments and return values ---------------------------


def _nullspace(tr, args, result, dt):
    tr.add("expr.nullspace.rows_in", len(args["rows"]))


def _subs(tr, args, result, dt):
    tr.maximum("expr.subs.out_terms_max", expr_terms(result))


def _time_form(tr, args, result, dt):
    tr.maximum("fluid.quasilinear_time_form.det_terms", expr_terms(result["_det"]))


def _determining(tr, args, result, dt):
    tr.add("symmetry.determining_equations.rows", len(result))


def _solve(tr, args, result, dt):
    tr.add("symmetry.solve_determining.dim", len(result))


def _verify(tr, args, result, dt):
    tr.add("symmetry.verify_symmetry.nonzero",
           sum(1 for r in result if not r.is_zero()))


def _reduced(tr, args, result, dt):
    tr.add("reduction.reduced_system.rhs_terms",
           sum(expr_terms(e) for e in result.rhs.values()))


def _check(tr, args, result, dt):
    tr.add(f"reduction.symbolic_check_reduction."
           f"{args['theory']}-{args['case']}.s", dt)


def _integrate(tr, args, result, dt):
    tr.add("odesolve.integrate.steps", result.n_steps)
    tr.add("odesolve.integrate.rejected", result.n_rejected)
    tr.add("odesolve.integrate.events", int(result.termination == "event"))
    failed = result.termination == "step-failure"
    tr.add("odesolve.integrate.step_failures", int(failed))
    cfg = args["cfg"]
    tr.add("odesolve.integrate.budget_exhausted",
           int(failed and result.n_steps >= cfg.max_steps))


def _critical(tr, args, result, dt):
    tr.add("odesolve.find_critical.bisections", result.iterations)


_COUNTERS = {
    "expr.nullspace": _nullspace,
    "expr.subs": _subs,
    "fluid.quasilinear_time_form": _time_form,
    "symmetry.determining_equations": _determining,
    "symmetry.solve_determining": _solve,
    "symmetry.verify_symmetry": _verify,
    "reduction.reduced_system": _reduced,
    "reduction.symbolic_check_reduction": _check,
    "odesolve.integrate": _integrate,
    "odesolve.find_critical": _critical,
}
