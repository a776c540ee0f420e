"""Set-up from a plan: import cfkit and build every input from its text.

This is the work the reported set-up time covers, so it imports nothing
that `import cfkit` does not load itself (the worker reads the plan with
json before calling it).  Oracle references are built later, by ops.py,
outside every timed part.
"""

from __future__ import annotations

from fractions import Fraction


def target_text(c) -> str:
    p, q, r, s = c
    return f"({p}*e + {q})/({r}*e + {s})"


class Context:
    """cfkit objects built from one plan's texts."""

    def __init__(self, api, plan: dict, root: str):
        self.api = api
        self.plan = plan
        self.root = root
        self.specs = {name: api.load_fixture(name) for name in plan["fixtures"]}
        for name, data in plan["specs"].items():
            self.specs[name] = api.parse_formula_text(data["text"])
        self.hyps = {
            hid: api.ClosedFormHypothesis(api.Side(side), api.parse(text), valid_from)
            for hid, (_spec, side, text, valid_from) in plan.get("hyps", {}).items()
        }
        self.targets = {}
        self.intervals = {}
        for op in plan["ops"]:
            if op["kind"] == "limcheck":
                key = tuple(op["target"])
                if key not in self.targets:
                    self.targets[key] = api.parse_constant_expr(target_text(key))
            elif op["kind"] == "rec":
                key = (op["lower"], op["upper"])
                self.intervals[key] = api.Interval(Fraction(op["lower"]), Fraction(op["upper"]))
        #: Oracle sequences per spec name, filled by ops.sequences.
        self.sequences = {}


def setup(plan: dict, root: str) -> Context:
    import cfkit

    if plan["workload"] == "cli":
        import cfkit.cli  # noqa: F401  (the children import it; the client loads it once)
    return Context(cfkit, plan, root)
