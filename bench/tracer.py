"""Per-layer tracing of moncatkit, installed from the benchmark's side.

`install()` wraps every function defined in a moncatkit module and every
method of the `CategoryModel` subclasses, then rebinds each wrapped name in
every moncatkit module that imported it (`from .terms import mag` makes a
second binding that patching `terms.mag` alone would miss). Nothing under
`src/` is edited.

Each wrapped call is a span: name, start, end and the span that called it.
Hot leaves run millions of times (`terms.mag` about 2.4 M times on axioms),
so spans are aggregated per (name, parent) into calls, total time and self
time, where self time is the span's duration minus the time its child spans
cover. Only coarse spans (the `cli` layer, the law-suite drivers and
`validate_category`) are also kept whole, tagged with the job they belong
to. Everything stays in memory until `dump()` at the end of the pass.

Layer names: a module-level function `f` of module `m` is `m.f`; a method
`g` of a model class is `<layer>.g`, where the layer is `models.table`,
`models.thin`, `models.words` or `models.mat` for the four base models, and
`<module>.model` for the categories built by strictify and nonstrictify.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("terms", "core", "models", "strictify", "nonstrictify", "laws", "fixtures", "cli")
LAYERS = ("terms", "models", "core", "strictify", "nonstrictify", "laws", "cli")
MODEL_LAYERS = {
    "FiniteTableCategory": "models.table",
    "FreeThinModel": "models.thin",
    "FreeMonoidThinModel": "models.words",
    "MatrixModCategory": "models.mat",
}
STRUCTURAL = ("associator", "associator_inv", "lunitor", "lunitor_inv", "runitor", "runitor_inv")
FACTOR_LISTS = ("strictify.theta_factors", "strictify.rho_factors")


def _names(prefix: str, *suffixes: str) -> tuple:
    return tuple(f"{prefix}.{s}" for s in suffixes)


# (metric, unit, kind, selector). kind is "calls" or "self_s" over the spans
# the selector names (a tuple of exact names, or a prefix string ending in
# "."), or "counter" for a value the wrappers count themselves.
PER_LAYER = [
    ("terms.mag.calls", "count", "calls", ("terms.mag",)),
    ("terms.mag.self_s", "s", "self_s", ("terms.mag",)),
    ("terms.forget_parens.calls", "count", "calls", ("terms.forget_parens",)),
    ("terms.forget_parens.self_s", "s", "self_s", ("terms.forget_parens",)),
    ("terms.parse_term.calls", "count", "calls", ("terms.parse_term",)),
    ("terms.parse_term.self_s", "s", "self_s", ("terms.parse_term", "terms._tokenize")),
    ("terms.render_term.self_s", "s", "self_s", ("terms.render_term",)),
    ("terms.shapes.self_s", "s", "self_s",
     _names("terms", "shapes_with_leaves", "enumerate_shapes", "attach_labels", "left_comb", "collapse")),
    ("terms.is_shape.calls", "count", "calls", ("terms.is_shape",)),
    ("models.thin.self_s", "s", "self_s", "models.thin."),
    ("models.thin.hom.calls", "count", "calls", ("models.thin.hom",)),
    ("models.thin.hom.self_s", "s", "self_s", ("models.thin.hom", "models.thin.the")),
    ("models.thin.structural.calls", "count", "calls", _names("models.thin", *STRUCTURAL)),
    ("models.words.self_s", "s", "self_s", "models.words."),
    ("models.enumerate_objects.self_s", "s", "self_s",
     ("models.thin.enumerate_objects", "models.words.enumerate_objects")),
    ("models.table.self_s", "s", "self_s", "models.table."),
    ("models.table.hom.self_s", "s", "self_s", ("models.table.hom",)),
    ("models.table.compose.calls", "count", "calls", ("models.table.compose",)),
    ("models.mat.self_s", "s", "self_s", "models.mat."),
    ("models.mat.tensor_mor.calls", "count", "calls", ("models.mat.tensor_mor",)),
    ("models.mat.tensor_mor.self_s", "s", "self_s", ("models.mat.tensor_mor",)),
    ("models.mat.compose.self_s", "s", "self_s", ("models.mat.compose",)),
    ("models.mat.identity.calls", "count", "calls", ("models.mat.identity",)),
    ("models.mat.bytes_out", "bytes", "counter", "models.mat.bytes_out"),
    ("models.validate_category.self_s", "s", "self_s", ("models.validate_category",)),
    ("core.check_pentagon.calls", "count", "calls", ("core.check_pentagon",)),
    ("core.check_pentagon.self_s", "s", "self_s", ("core.check_pentagon",)),
    ("core.compose_factors.self_s", "s", "self_s", ("core.compose_factors",)),
    ("core.interpret_factor.calls", "count", "calls", ("core.interpret_factor",)),
    ("core.render_factor.self_s", "s", "self_s", ("core.render_factor",)),
    ("strictify.theta_factors.calls", "count", "calls", ("strictify.theta_factors",)),
    ("strictify.theta_factors.self_s", "s", "self_s", ("strictify.theta_factors",)),
    ("strictify.factors_emitted", "count", "counter", "strictify.factors_emitted"),
    ("strictify.rho_factors.self_s", "s", "self_s", ("strictify.rho_factors",)),
    ("strictify.par_seq.calls", "count", "calls", ("strictify.par_seq",)),
    ("strictify.par_seq.self_s", "s", "self_s", ("strictify.par_seq",)),
    ("strictify.beta.self_s", "s", "self_s", ("strictify.beta", "strictify.beta_inv")),
    ("strictify.star_arrows.self_s", "s", "self_s", ("strictify.star_arrows",)),
    ("strictify.model.self_s", "s", "self_s", "strictify.model."),
    ("nonstrictify.beta_q.calls", "count", "calls", ("nonstrictify.beta_q", "nonstrictify.beta_q_inv")),
    ("nonstrictify.beta_q.self_s", "s", "self_s", ("nonstrictify.beta_q", "nonstrictify.beta_q_inv")),
    ("nonstrictify.par_q.calls", "count", "calls", ("nonstrictify.par_q",)),
    ("nonstrictify.par_q.self_s", "s", "self_s", ("nonstrictify.par_q",)),
    ("nonstrictify.image_fold_q.self_s", "s", "self_s", ("nonstrictify.image_fold_q",)),
    ("nonstrictify.star_q_arrows.self_s", "s", "self_s", ("nonstrictify.star_q_arrows",)),
    ("nonstrictify.qobject.created", "count", "calls", ("nonstrictify.QObject.__post_init__",)),
    ("nonstrictify.model.self_s", "s", "self_s", "nonstrictify.model."),
    ("laws.compare_functors.self_s", "s", "self_s", ("laws.compare_functors",)),
    ("laws.compare_nats.self_s", "s", "self_s", ("laws.compare_nats",)),
    ("cli.parse.self_s", "s", "self_s",
     _names("cli", "_resolve_model", "_parse_term_arg", "_parse_sequence", "_parse_qobject")),
    ("cli.emit.self_s", "s", "self_s", ("cli._emit", "cli._report_exit")),
    ("runtime.gc_s", "s", "counter", "runtime.gc_s"),
    ("runtime.gc2.count", "count", "counter", "runtime.gc2.count"),
] + [(f"{layer}.self_s", "s", "self_s", f"{layer}.") for layer in LAYERS]


def _is_full(name: str) -> bool:
    return name.startswith(("cli.", "laws.run_")) or name == "models.validate_category"


class Tracer:
    """Span recorder shared by every wrapper of one pass."""

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        # A frame is [name, ns covered by child spans, id of this span if it
        # is kept whole or -1, id of the nearest kept span at or above it].
        self.stack: list[list] = [["<root>", 0, -1, -1]]
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(int)
        self.job = -1
        self._gc_start = 0

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, fn, name: str, post=None):
        stack, agg, spans, clock, t0 = self.stack, self.agg, self.spans, time.perf_counter_ns, self.t0
        full = _is_full(name)

        def record(frame, parent, start, end):
            dt = end - start
            parent[1] += dt
            key = (name, parent[0])
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0, 0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if full:
                spans[frame[2]] = (frame[2], name, start - t0, end - t0, parent[3], self.job)

        def enter():
            parent = stack[-1]
            if full:
                frame = [name, 0, len(spans), len(spans)]
                spans.append(None)
            else:
                frame = [name, 0, -1, parent[3]]
            stack.append(frame)
            return parent, frame

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens when it is resumed; each resume is a span.
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    parent, frame = enter()
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        record(frame, parent, start, end)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                parent, frame = enter()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    record(frame, parent, start, end)
                if post is not None:
                    post(result, parent[0])
                return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.counters["runtime.gc_s"] += (time.perf_counter_ns() - self._gc_start) / 1e9
            if info.get("generation") == 2:
                self.counters["runtime.gc2.count"] += 1

    def install(self):
        """Wrap moncatkit in place; call after importing it, before the jobs."""
        import moncatkit
        from moncatkit import core

        counters = self.counters

        def count_factors(result, parent):
            if parent not in FACTOR_LISTS:
                counters["strictify.factors_emitted"] += len(result)

        def count_mat_bytes(result, parent):
            if not parent.startswith("models.mat."):
                payload = getattr(result, "payload", None)
                counters["models.mat.bytes_out"] += getattr(payload, "nbytes", 0)

        modules = [sys.modules[f"moncatkit.{m}"] for m in MODULES]
        replaced: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    post = count_factors if name in FACTOR_LISTS else None
                    replaced[id(value)] = self.wrap(value, name, post)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and issubclass(value, core.CategoryModel)
                    and value is not core.CategoryModel
                ):
                    layer = MODEL_LAYERS.get(attr, f"{short}.model")
                    post = count_mat_bytes if layer == "models.mat" else None
                    self._wrap_class(value, layer, post)
        qobject = sys.modules["moncatkit.nonstrictify"].QObject
        qobject.__post_init__ = self.wrap(qobject.__post_init__, "nonstrictify.QObject.__post_init__")

        for module in modules + [moncatkit]:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        gc.callbacks.append(self._gc_callback)

    def _wrap_class(self, cls, layer: str, post):
        seen = set()
        for klass in cls.__mro__:
            if klass is object:
                continue
            for attr, raw in vars(klass).items():
                if attr in seen or (attr.startswith("__") and attr.endswith("__")):
                    continue
                seen.add(attr)
                name = f"{layer}.{attr}"
                if isinstance(raw, property) and raw.fget is not None:
                    setattr(cls, attr, property(self.wrap(raw.fget, name, post)))
                elif isinstance(raw, (staticmethod, classmethod)):
                    continue
                elif inspect.isfunction(raw):
                    setattr(cls, attr, self.wrap(raw, name, post))

    def stop(self):
        """Stop timing GC pauses; the wrappers stay until the process ends."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- results ------------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for (name, _parent), (calls, total, self_ns) in self.agg.items():
            rec = out.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_ns
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        totals = self.totals()
        out = {}
        for metric, unit, kind, selector in PER_LAYER:
            if kind == "counter":
                out[metric] = (self.counters.get(selector, 0), unit)
                continue
            if isinstance(selector, str):
                names = [n for n in totals if n.startswith(selector)]
            else:
                names = [n for n in selector if n in totals]
            if kind == "calls":
                out[metric] = (sum(totals[n][0] for n in names), unit)
            else:
                out[metric] = (sum(totals[n][2] for n in names) / 1e9, unit)
        return out

    def dump(self, path) -> None:
        """Write the aggregated table and the kept spans (times in ns from install)."""
        data = {
            "aggregate": [
                {"name": name, "parent": parent, "calls": c, "total_ns": t, "self_ns": s}
                for (name, parent), (c, t, s) in sorted(self.agg.items())
            ],
            "spans_fields": ["id", "name", "start_ns", "end_ns", "parent_id", "job"],
            "spans": [s for s in self.spans if s is not None],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
