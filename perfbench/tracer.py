"""Span tracing of the dms layers from outside the library.

`Tracer.install()` rebinds every public function of each layer module,
and `Complex.__init__`, to a timing wrapper wherever a `dms` module
refers to it; `uninstall()` puts the originals back.  Each call records
a span [name, start, end, parent span, op id, error name] in memory,
and a few calls add to named counters when they return.  A layer's
self time is its span's duration minus the time its direct child spans
cover; `layer_metrics` turns the spans of a traced pass into the per-op
numbers the benchmark reports.
"""

import importlib
import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("cellcomplex", "homology", "morsefield", "surgery", "splitter",
          "fixtures", "formats", "cli")

# Per-cell id formatters: they run once per cell and a span would cost
# more than the call itself.
UNTRACED = {"vertex_id", "edge_id", "triangle_id", "tube_top_id",
            "tube_prism_id", "shrunk_id", "inner_id", "tag_from_id"}

NAME, START, END, PARENT, OP, ERROR = range(6)

CHECK_FUNCTIONS = ("validate_function", "induced_field", "validate_field",
                   "critical_cells", "is_perfect", "make_injective")


def _size(text):
    return len(text.encode("utf-8"))


def _compose_counts(args, result, counters):
    report = result[3]
    counters["composed"] += 1
    counters["rescaled"] += int(report.rescaled)
    counters["clearing_steps"] += report.boundary_clearing_steps


def _decompose_counts(args, result, counters):
    counters["decomposed"] += 1
    counters["circle_length"] += len(result.circle) // 2


def _count_hooks():
    """Span name -> fn(args, result, counters), run after a call returns."""
    def add(key, measure):
        def hook(args, result, counters):
            counters[key] += measure(args, result)
        return hook

    hooks = {
        "cellcomplex.Complex":
            add("cells_built", lambda a, r: sum(a[0].counts())),
        "homology.betti_mod2":
            add("cells_ranked", lambda a, r: sum(a[0].counts())),
        "surgery.compose": _compose_counts,
        "splitter.decompose": _decompose_counts,
        "formats.write_report_json":
            add("bytes_written", lambda a, r: os.path.getsize(a[1])),
    }
    for name in ("parse_tri", "parse_cwp", "parse_dvf", "parse_dmf"):
        hooks["formats." + name] = add("bytes_read", lambda a, r: _size(a[0]))
    for name in ("write_tri", "write_cwp", "write_dvf", "write_dmf",
                 "write_off", "write_dot"):
        hooks["formats." + name] = add("bytes_written", lambda a, r: _size(r))
    return hooks


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.op = -1
        self._stack = []
        self._originals = []  # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[END] = clock()
                span[ERROR] = type(err).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if hook is not None:
                hook(args, result, counters)
            return result

        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        hooks = _count_hooks()
        modules = [importlib.import_module("dms." + layer) for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    name = "%s.%s" % (layer, attr)
                    wrapped[fn] = self._wrap(name, fn, hooks.get(name))
        for mod in modules + [importlib.import_module("dms")]:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    self._originals.append((mod, attr, fn))
                    setattr(mod, attr, wrapped[fn])
        Complex = modules[0].Complex
        self._originals.append((Complex, "__init__", Complex.__init__))
        Complex.__init__ = self._wrap("cellcomplex.Complex", Complex.__init__,
                                      hooks["cellcomplex.Complex"])

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def layer_metrics(spans, counters, ops):
    """Per-op layer metrics from the spans and counters of `ops` traced
    ops."""
    time_of = Counter()
    calls = Counter()
    errors = Counter()
    for span, own in zip(spans, self_times(spans)):
        time_of[span[NAME]] += own
        calls[span[NAME]] += 1
        if span[ERROR] is not None:
            errors[span[NAME], span[ERROR]] += 1

    def total(names):
        return sum(time_of[n] for n in names)

    def layer(prefix):
        return [n for n in time_of if n.startswith(prefix)]

    decomposes = calls["splitter.decompose"]
    per_op = {
        "homology.betti_s": total(layer("homology.")),
        "homology.betti_calls": calls["homology.betti_mod2"],
        "homology.cells_ranked": counters["cells_ranked"],
        "cellcomplex.construct_s": time_of["cellcomplex.Complex"],
        "cellcomplex.constructs": calls["cellcomplex.Complex"],
        "cellcomplex.cells_built": counters["cells_built"],
        "cellcomplex.verify_s": time_of["cellcomplex.verify_closed_surface"],
        "morsefield.check_s":
            total("morsefield." + n for n in CHECK_FUNCTIONS),
        "morsefield.validate_function_calls":
            calls["morsefield.validate_function"],
        "morsefield.synthesize_s": time_of["morsefield.synthesize_function"],
        "morsefield.synthesize_calls": calls["morsefield.synthesize_function"],
        "surgery.compose_s": time_of["surgery.compose"],
        "surgery.separate_s": time_of["surgery.separate_critical_cells"],
        "surgery.bisect_edge_calls": calls["surgery.bisect_edge"],
        "surgery.bisect_2cell_calls": calls["surgery.bisect_2cell"],
        "surgery.clearing_steps": counters["clearing_steps"],
        "splitter.self_s": total(layer("splitter.")),
        "splitter.resolve_wedge_calls": calls["splitter.resolve_wedge"],
        "splitter.resolve_arc_calls": calls["splitter.resolve_arc"],
        "splitter.not_separating":
            errors["splitter.decompose", "NotSeparating"],
        "formats.parse_s":
            total(layer("formats.parse_") + ["formats.load_complex"]),
        "formats.write_s":
            total(layer("formats.write_") + ["formats.dump_complex"]),
        "formats.bytes_read": counters["bytes_read"],
        "formats.bytes_written": counters["bytes_written"],
        "cli.self_s": total(layer("cli.")),
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    # ratios over the calls they describe, 0 where there were none
    metrics["surgery.rescale_ratio"] = (
        counters["rescaled"] / counters["composed"]
        if counters["composed"] else 0.0)
    metrics["splitter.repair_iterations"] = (
        calls["splitter.classify_boundary"] / decomposes
        if decomposes else 0.0)
    decomposed = counters["decomposed"]
    metrics["splitter.circle_length"] = (
        counters["circle_length"] / decomposed if decomposed else 0.0)
    return metrics
