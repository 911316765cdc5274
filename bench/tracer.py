"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each ``loewner_basin`` module from
outside the package: every wrapped call opens a span (name, layer,
start, end, parent span, request id) on an in-memory stack.  Spans are
kept in memory and written out when the run ends.  A layer's busy time
is the union of its spans' intervals (nested spans of the same layer
count once); a span's self time is its duration minus the time its
child spans cover.

Three functions run thousands of times per request (``FieldSpec.h``,
``LinearPath.bounds`` and ``hermitian_bounds``).  They are traced as
"hot" spans: they are timed and counted like the others, and they
count as children for self time, but no per-call record is kept.

Each target is patched where callers look it up: a function imported
into another module by name (``chain._evolve_one``) is replaced in that
module, methods are replaced on their class.  A target missing from the
program is listed in ``absent`` and every metric built from it is left
out of the result instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

_perf = time.perf_counter

# (module, attribute, span name, layer, hot).  The layer is the module
# that defines the function; the module is where callers look it up.
TARGETS = (
    ("flow", "integrate_adaptive", "integrate_adaptive", "integrate", False),
    ("linear", "integrate_adaptive", "integrate_adaptive", "integrate", False),
    ("fields", "FieldSpec.h", "h", "fields", True),
    ("cli", "class_n_check", "class_n_check", "fields", False),
    ("fields", "class_n_check", "class_n_check", "fields", False),
    ("cli", "gurganus_check", "gurganus_check", "fields", False),
    ("cli", "growth_check", "growth_check", "fields", False),
    ("cli", "remainder_order_check", "remainder_order_check", "fields", False),
    ("fields", "parse_field_config", "parse_field_config", "fields", False),
    ("cli", "builtin_field", "builtin_field", "fields", False),
    ("linear", "hermitian_bounds", "hermitian_bounds", "linear", True),
    ("linear", "LinearPath.bounds", "bounds", "linear", True),
    ("linear", "LinearPath.M", "M", "linear", False),
    ("linear", "LinearPath.K", "K", "linear", False),
    ("schedule", "ell_estimate", "ell_estimate", "linear", False),
    ("chain", "transition_matrix", "transition_matrix", "linear", False),
    ("linear", "InverseTransitionProduct.push", "push", "linear", False),
    ("linear", "InverseTransitionProduct.apply", "apply", "linear", False),
    ("chain", "_evolve_one", "leg", "flow", False),
    ("flow", "_evolve_one", "leg", "flow", False),
    ("cli", "evolve", "evolve", "flow", False),
    ("flow", "evolve", "evolve", "flow", False),
    ("cli", "trace", "trace", "flow", False),
    ("cli", "decay_bounds_check", "decay_bounds_check", "flow", False),
    ("cli", "semigroup_defect", "semigroup_defect", "flow", False),
    ("cli", "build_schedule", "build_schedule", "schedule", False),
    ("schedule", "compute_times", "compute_times", "schedule", False),
    ("cli", "contraction_check", "contraction_check", "schedule", False),
    ("chain", "ChainEvaluator.eval", "eval", "chain", False),
    ("chain", "ChainEvaluator.identity_residual", "identity_residual",
     "chain", False),
    ("chain", "ChainEvaluator.pde_residual", "pde_residual", "chain", False),
)

_CHECKS = ("class_n_check", "gurganus_check", "growth_check",
           "remainder_order_check")


class Tracer:
    """In-memory span recorder with per-name and per-layer aggregates."""

    def __init__(self):
        self.origin = _perf()
        self.request = 0
        #: targets the program lacks, and span names whose metrics are
        #: left out because a target is absent or its result unreadable
        self.absent: list[str] = []
        self.missing: set[str] = set()
        # open frames: [name, layer, start, child_time, span_id, parent_id]
        self._frames: list[list] = []
        self._next_id = 1
        self.spans: list[tuple] = []    # (id, parent, request, name, t0, t1)
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.layer_busy: Counter = Counter()
        self.layer_self: Counter = Counter()
        self._layer_depth: Counter = Counter()
        self._layer_start: dict = {}
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self._originals: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def enter(self, name: str, layer: str, hot: bool = False) -> None:
        now = _perf()
        # counts that depend on which spans are open when a call starts
        if name == "bounds":
            if self.active["M"] or self.active["K"]:
                self.counts["mass_nodes"] += 1
        elif name == "hermitian_bounds":
            if self.active["bounds"]:
                self.counts["bounds_misses"] += 1
        elif name in ("M", "K") and self._layer_depth["schedule"]:
            self.counts["mass_queries"] += 1
        if self._layer_depth[layer] == 0:
            self._layer_start[layer] = now
        self._layer_depth[layer] += 1
        self.active[name] += 1
        parent = 0
        if self._frames:
            top = self._frames[-1]
            parent = top[4] or top[5]
        sid = 0
        if not hot:
            sid = self._next_id
            self._next_id += 1
        self._frames.append([name, layer, now, 0.0, sid, parent])

    def exit(self) -> None:
        now = _perf()
        name, layer, start, child, sid, parent = self._frames.pop()
        dur = now - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.layer_self[layer] += dur - child
        if self._frames:
            self._frames[-1][3] += dur
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_busy[layer] += now - self._layer_start[layer]
        self.active[name] -= 1
        if sid:
            self.spans.append((sid, parent, self.request, name,
                               start - self.origin, now - self.origin))

    def wrap(self, fn, name, layer, hot=False, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name, layer, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if on_return is not None and name not in tracer.missing:
                try:
                    on_return(args, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.absent.append(f"{name}: unreadable result")
                    tracer.missing.add(name)
            return result
        return wrapper

    # -- patching -------------------------------------------------------

    def install(self, package: str = "loewner_basin") -> None:
        """Patch every target; record the ones the program lacks."""
        hooks = {
            "integrate_adaptive": self._on_integrate,
            "apply": self._on_apply,
            "eval": self._on_eval,
            "evolve": self._on_evolve,
            "trace": self._on_trace,
        }
        wrappers: dict = {}
        for mod_name, attr, name, layer, hot in TARGETS:
            try:
                owner = importlib.import_module(f"{package}.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                self.missing.add(name)
                continue
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self.wrap(fn, name, layer, hot, hooks.get(name))
                wrappers[id(fn)] = wrapper
            self._originals.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._originals):
            setattr(owner, leaf, fn)
        self._originals.clear()

    # -- counters from return values ------------------------------------

    def _on_integrate(self, args, result):
        stats = result[1]
        self.counts["steps"] += stats.steps_taken
        self.counts["rejected"] += stats.steps_rejected
        self.counts["rhs_evals"] += stats.rhs_evaluations

    def _on_apply(self, args, result):
        self.counts["apply_solves"] += len(args[0])

    def _on_eval(self, args, result):
        self.counts["chain_legs"] += len(result.history)
        self.counts["chain_converged"] += bool(result.converged)

    def _on_evolve(self, args, result):
        self.counts["flow_points"] += int(args[0].points.shape[0])

    def _on_trace(self, args, result):
        self.counts["flow_points"] += 1

    # -- request boundary -----------------------------------------------

    def request_span(self, fn, *args):
        """Run one request as the root span ``main`` of layer ``cli``."""
        self.request += 1
        self.enter("main", "cli")
        try:
            return fn(*args)
        finally:
            self.exit()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "request",
                                             "name", "start_s", "end_s"]})
                     + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- per-layer metrics ----------------------------------------------

    def metrics(self, requests: int, traced_wall: float,
                untraced_wall: float) -> dict:
        """Per-layer metrics, normalized per request where they are
        totals.  Metrics whose targets are absent are left out."""
        n = max(requests, 1)
        c, tot, cnt = self.calls, self.total, self.counts
        out: dict = {}

        def put(name, unit, value, *needs):
            if not self.missing.intersection(needs):
                out[name] = {"value": float(value), "unit": unit}

        def ratio(num, den):
            return num / den if den else 0.0

        steps, rejected, rhs = cnt["steps"], cnt["rejected"], cnt["rhs_evals"]
        ig = "integrate_adaptive"
        put("integrate.calls", "count/req", c[ig] / n, ig)
        put("integrate.busy_s", "s/req", self.layer_busy["integrate"] / n, ig)
        put("integrate.busy_share", "ratio",
            ratio(self.layer_busy["integrate"], traced_wall), ig)
        put("integrate.steps", "count/req", steps / n, ig)
        put("integrate.rejected", "count/req", rejected / n, ig)
        put("integrate.accept_ratio", "ratio", ratio(steps, steps + rejected),
            ig)
        put("integrate.rhs_evals", "count/req", rhs / n, ig)
        put("integrate.us_per_rhs", "us",
            1e6 * ratio(self.layer_busy["integrate"], rhs), ig)

        put("fields.h_calls", "count/req", c["h"] / n, "h")
        put("fields.h_busy_s", "s/req", tot["h"] / n, "h")
        put("fields.check_calls", "count/req",
            sum(c[k] for k in _CHECKS) / n, *_CHECKS)
        put("fields.check_busy_s", "s/req",
            sum(tot[k] for k in _CHECKS) / n, *_CHECKS)
        put("fields.parse_busy_s", "s/req",
            (tot["parse_field_config"] + tot["builtin_field"]) / n,
            "parse_field_config", "builtin_field")

        put("linear.busy_s", "s/req", self.layer_busy["linear"] / n)
        put("linear.busy_share", "ratio",
            ratio(self.layer_busy["linear"], traced_wall))
        put("linear.bounds_calls", "count/req", c["bounds"] / n, "bounds")
        put("linear.eig_calls", "count/req", c["hermitian_bounds"] / n,
            "hermitian_bounds")
        put("linear.bounds_hit_ratio", "ratio",
            ratio(c["bounds"] - cnt["bounds_misses"], c["bounds"]),
            "bounds", "hermitian_bounds")
        put("linear.eig_busy_s", "s/req", tot["hermitian_bounds"] / n,
            "hermitian_bounds")
        put("linear.mass_busy_s", "s/req", (tot["M"] + tot["K"]) / n, "M", "K")
        put("linear.mass_nodes", "count/req", cnt["mass_nodes"] / n,
            "M", "K", "bounds")
        put("linear.transition_calls", "count/req",
            c["transition_matrix"] / n, "transition_matrix")
        put("linear.transition_busy_s", "s/req",
            tot["transition_matrix"] / n, "transition_matrix")
        put("linear.push_busy_s", "s/req", tot["push"] / n, "push")
        put("linear.apply_calls", "count/req", c["apply"] / n, "apply")
        put("linear.apply_solves", "count/req", cnt["apply_solves"] / n,
            "apply")
        put("linear.apply_busy_s", "s/req", tot["apply"] / n, "apply")

        put("flow.legs", "count/req", c["leg"] / n, "leg")
        put("flow.points", "count/req", cnt["flow_points"] / n,
            "evolve", "trace")
        put("flow.busy_s", "s/req", self.layer_busy["flow"] / n)
        put("flow.self_s", "s/req", self.layer_self["flow"] / n)
        put("flow.check_busy_s", "s/req",
            (tot["decay_bounds_check"] + tot["semigroup_defect"]) / n,
            "decay_bounds_check", "semigroup_defect")

        put("schedule.builds", "count/req", c["build_schedule"] / n,
            "build_schedule")
        put("schedule.busy_s", "s/req", self.layer_busy["schedule"] / n)
        put("schedule.times_busy_s", "s/req", tot["compute_times"] / n,
            "compute_times")
        put("schedule.mass_queries", "count/req", cnt["mass_queries"] / n,
            "M", "K")
        put("schedule.ell_busy_s", "s/req", tot["ell_estimate"] / n,
            "ell_estimate")
        put("schedule.contraction_busy_s", "s/req",
            tot["contraction_check"] / n, "contraction_check")

        evals = c["eval"]
        put("chain.evals", "count/req", evals / n, "eval")
        put("chain.legs", "count/req", cnt["chain_legs"] / n, "eval")
        put("chain.converged_ratio", "ratio",
            ratio(cnt["chain_converged"], evals), "eval")
        put("chain.busy_s", "s/req", self.layer_busy["chain"] / n)
        put("chain.self_s", "s/req", self.layer_self["chain"] / n)
        put("chain.residual_busy_s", "s/req",
            (tot["identity_residual"] + tot["pde_residual"]) / n,
            "identity_residual", "pde_residual")

        put("cli.requests", "count", requests)
        put("cli.busy_s", "s/req", self.layer_busy["cli"] / n)
        put("cli.self_s", "s/req", self.layer_self["cli"] / n)
        put("trace.overhead_ratio", "ratio",
            ratio(traced_wall, untraced_wall))
        return out
