"""Outside-in tracing of the wrongexit layers.

The tracer records spans by wrapping the public calls into each layer where
they are looked up: module attributes of ``wrongexit.cli``,
``wrongexit.proposals`` and ``wrongexit.engine``, plus the model instance's
``tilted_sampler`` closures and the rule instance's ``first_hit``.  No file
of the package is changed.  Spans (name, start, end, parent) live in compact
arrays in memory and are written out once, at the end of a run.

Each span name belongs to one layer (see ``LAYER``); a layer's self time is
the duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

from array import array
from collections import Counter
import math
import time

import numpy as np

# span name -> layer; the layer names are the package's module names
# (``solvers`` includes ``rootfind``, which only ``solvers`` calls)
LAYER = {
    "sampler": "models",
    "first_hit": "regions",
    "decay_scan": "engine",
    "estimate_wrong_exit": "engine",
    "plain_mc": "engine",
    "load_config": "cli",
    "build_model": "cli",
    "build_rule": "cli",
    "build_proposal": "cli",
    "cmd_table": "cli",
    "build_siegmund": "proposals",
    "build_gap": "proposals",
    "build_sum_intersection": "proposals",
    "check_direct_siegmund_homogeneous": "proposals",
}
BUILDERS = ("build_siegmund", "build_gap", "build_sum_intersection")
ENGINE_CALLS = ("decay_scan", "estimate_wrong_exit", "plain_mc")
CLI_CALLS = ("load_config", "build_model", "build_rule", "build_proposal",
             "cmd_table")
SOLVER_PREFIX = "solve_"
SOLVER_EXTRA = ("v_lower_bound",)


def method_key(method: str) -> str:
    """Solver method label as a metric-name suffix (``a/b`` -> ``a.b``)."""
    out = method.replace("/", ".")
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in out)


class SolverCounter:
    """Counts the non-converged results of the solver programs called from
    ``wrongexit.cli`` and ``wrongexit.proposals``, with no span, so that the
    timed pass can afford it.  Use it as a context manager; the count adds
    up over its uses."""

    def __init__(self):
        self.nonconverged = 0
        self._undo: list = []

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not getattr(out, "converged", True):
                self.nonconverged += 1
            return out

        return counted

    def __enter__(self):
        from wrongexit import cli, proposals

        for mod in (cli, proposals):
            for attr in list(vars(mod)):
                if attr.startswith(SOLVER_PREFIX) or attr in SOLVER_EXTRA:
                    fn = getattr(mod, attr)
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)


class Tracer:
    """Span recorder with per-boundary counters.

    ``install`` wraps the layer boundaries; ``uninstall`` restores every
    attribute it replaced, so untraced passes run the unmodified program.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.methods: Counter = Counter()
        self.max_residual = 0.0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _patch(self, obj, attr: str, new):
        had = attr in vars(obj)
        self._undo.append((obj, attr, vars(obj).get(attr), had))
        setattr(obj, attr, new)

    # -- boundaries --------------------------------------------------------

    def install(self, models=(), rules=()):
        """Wrap the package's layer boundaries and the given instances."""
        from wrongexit import cli, engine, proposals

        for mod in (cli, proposals):
            for attr in list(vars(mod)):
                if attr.startswith(SOLVER_PREFIX) or attr in SOLVER_EXTRA:
                    self._patch(mod, attr,
                                self.wrap(attr, getattr(mod, attr),
                                          self._after_solver))
                elif attr in LAYER and LAYER[attr] == "proposals":
                    self._patch(mod, attr, self.wrap(attr, getattr(mod, attr)))
        for attr in CLI_CALLS:
            self._patch(cli, attr, self.wrap(attr, getattr(cli, attr)))
        for attr in ENGINE_CALLS:
            after = (self._after_engine if attr == "estimate_wrong_exit"
                     else None)
            self._patch(engine, attr, self.wrap(attr, getattr(engine, attr),
                                                after))
        for model in models:
            self._wrap_model(model)
        for rule in rules:
            self._patch(rule, "first_hit",
                        self.wrap("first_hit", rule.first_hit,
                                  self._after_first_hit))

    def _wrap_model(self, model):
        factory = model.tilted_sampler
        d = model.dim

        def after_sample(args, kwargs, out):
            self.counts["sampler_calls"] += 1
            self.counts["values"] += out.shape[0] * d

        def tilted_sampler(theta):
            return self.wrap("sampler", factory(theta), after_sample)

        self._patch(model, "tilted_sampler", tilted_sampler)

    def uninstall(self):
        while self._undo:
            obj, attr, old, had = self._undo.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    # -- counters ----------------------------------------------------------

    def _after_first_hit(self, args, kwargs, out):
        c = self.counts
        rows = args[0].shape[0]
        idx, region = out
        c["first_hit_calls"] += 1
        c["rows"] += rows
        if idx >= 0:
            c["steps"] += idx + 1
            if region.rare:
                c["wrong_exits"] += 1
        else:
            c["steps"] += rows

    def _after_engine(self, args, kwargs, out):
        self.counts["paths"] += out.n

    def _after_solver(self, args, kwargs, out):
        method = getattr(out, "method", None)
        self.methods[method_key(method or "v_lower_bound")] += 1
        if method is not None:
            if not out.converged:
                self.counts["nonconverged"] += 1
            if math.isfinite(out.residual):
                self.max_residual = max(self.max_residual, float(out.residual))

    def reset_counts(self):
        self.counts = Counter()
        self.methods = Counter()
        self.max_residual = 0.0

    def exact_counts(self) -> dict:
        """Counters that must repeat exactly for a fixed seed and code."""
        out = dict(sorted(self.counts.items()))
        out["methods"] = dict(sorted(self.methods.items()))
        out["max_residual"] = self.max_residual
        return out

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return names, parent, start, end

    def layer_times(self, lo: int = 0, hi: int = None) -> dict:
        """Per-layer self seconds over spans ``lo:hi``, plus ``sim``, the
        wall of engine spans with no engine ancestor, and ``build``, the
        wall of proposal builders."""
        names, parent, start, end = (a[lo:hi] for a in self.arrays())
        dur = (end - start).astype(np.float64) * 1e-9
        n = names.size
        child = np.zeros(n)
        local = parent - lo
        has = local >= 0
        np.add.at(child, local[has], dur[has])
        self_t = dur - child
        # every span name outside LAYER is a solver program
        layer_of = np.array([LAYER.get(nm, "solvers") for nm in self.names]
                            or [""])
        span_layer = layer_of[names]
        out = {}
        for layer in ("models", "regions", "engine", "proposals", "solvers",
                      "cli"):
            out[layer] = float(self_t[span_layer == layer].sum())
        # a top-level engine span: no ancestor of layer engine
        is_engine = span_layer == "engine"
        top = is_engine.copy()
        for i in np.flatnonzero(is_engine):
            p = local[i]
            while p >= 0:
                if is_engine[p]:
                    top[i] = False
                    break
                p = local[p]
        out["sim"] = float(dur[top].sum())
        build = np.isin(names, [self._ids[b] for b in BUILDERS
                                if b in self._ids])
        out["build"] = float(dur[build].sum())
        return out

    def dump(self, path):
        names, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=names,
                            parent=parent, start=start, end=end)
