"""Spans around cfkit's public functions, installed from benchmark code only.

`install` rebinds each listed function in every cfkit namespace that holds
it (a module that did `from .expr import evaluate` gets the wrapper too), so
calls between cfkit modules are traced without editing cfkit.  Each span
records name, start, end, parent span and op id; spans stay in memory and
are written once, by `write_spans`.  A span's self time is its duration
minus the durations of its direct children.  `fold_terms` is a generator,
so each resumption is one span.
"""

from __future__ import annotations

import json
import sys
import time

#: (module, function) pairs; "Class.method" names a method.
TRACED = (
    ("expr", "parse"),
    ("expr", "evaluate"),
    ("engine", "FormulaSpec.validate"),
    ("engine", "FormulaSpec.term"),
    ("engine", "fold_terms"),
    ("engine", "convergents"),
    ("engine", "convergents_from_terms"),
    ("engine", "estimate_limit"),
    ("verify", "check_closed_form"),
    ("verify", "check_limit_against_target"),
    ("recognize", "recognize"),
    ("recognize", "e_high_precision"),
    ("recognize", "mobius_value"),
    ("recognize", "parse_constant_expr"),
    ("transform", "apply_scaling_expr"),
    ("transform", "apply_scaling_table"),
    ("transform", "unitize_partial_numerators"),
    ("seqid", "bundled_snapshot"),
    ("seqid", "extract_integer_sequence"),
    ("seqid", "lookup_local"),
    ("formula_file", "parse_formula_text"),
    ("numeric", "decimal_string"),
    ("numeric", "decimal_string_ceil"),
    ("cli", "main"),
)

#: Counts read from returned values, and the other per-layer figures.
EXTRA = (
    ("engine.steps", "count"),
    ("engine.max_bits", "bits"),
    ("verify.residuals", "count"),
    ("recognize.matches", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr in TRACED:
        name = span_name(module, attr)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(EXTRA)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.stack: list[list] = []  # [id, name, start_ns, child_ns]
        self.next_id = 0
        self.op_id = None
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts = {"engine.steps": 0, "engine.max_bits": 0, "verify.residuals": 0,
                       "recognize.matches": 0}

    def enter(self, name: str) -> None:
        self.stack.append([self.next_id, name, time.perf_counter_ns(), 0])
        self.next_id += 1

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op_id))

    # -- counts read from returned values ---------------------------------

    def saw_convergent(self, conv) -> None:
        self.counts["engine.steps"] += 1
        bits = max(conv.A.numerator.bit_length(), conv.A.denominator.bit_length(),
                   conv.B.numerator.bit_length(), conv.B.denominator.bit_length())
        if bits > self.counts["engine.max_bits"]:
            self.counts["engine.max_bits"] = bits

    def saw_report(self, report) -> None:
        if report.residual_range is not None:
            lo, hi = report.residual_range
            last = report.first_failure.n if report.first_failure is not None else hi
            self.counts["verify.residuals"] += last - lo + 1

    def saw_matches(self, matches) -> None:
        self.counts["recognize.matches"] += len(matches)

    def metrics(self) -> dict[str, float]:
        out = {}
        for module, attr in TRACED:
            name = span_name(module, attr)
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6
        out.update(self.counts)
        return out


def _wrap(tracer: Tracer, name: str, func):
    after = {"verify.check_closed_form": tracer.saw_report,
             "recognize.recognize": tracer.saw_matches}.get(name)

    if name == "engine.fold_terms":
        def traced_generator(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.saw_convergent(item)
                yield item
        return traced_generator

    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result)
        return result

    return traced


def install(tracer: Tracer):
    """Rebind every TRACED function in all loaded cfkit namespaces.

    Returns a function that puts the originals back.
    """
    import cfkit.cli  # noqa: F401  (so its imported names are rebound too)

    namespaces = [m for n, m in sys.modules.items() if n == "cfkit" or n.startswith("cfkit.")]
    undo = []
    for module, attr in TRACED:
        mod = sys.modules[f"cfkit.{module}"]
        name = span_name(module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, _wrap(tracer, name, cls.__dict__[meth]))
            continue
        original = getattr(mod, attr)
        wrapper = _wrap(tracer, name, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def write_spans(tracer: Tracer, path) -> None:
    """All spans as JSON lines: id, name, start_ns, end_ns, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
