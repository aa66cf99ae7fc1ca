"""Per-layer tracing from outside the program.

`Tracer.install` replaces each listed public function of `pmsem` with a
wrapper in every `pmsem` module that binds the name, and a method on its
class, so calls through module globals (the recursion of `eval_prop`,
`truth_table_eval` and `tarski_eval` included) become nested spans.
Nothing under src/ changes.  A name missing from the program is
reported as absent.

Each wrapper records calls and self time, which is the span's duration
minus the time of its child spans, and keeps the first SPAN_CAP spans
(name, op id, parent, start, end) in memory for `write_spans`.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

TARGETS = (
    "syntax.parse",
    "syntax.print_formula",
    "ontology.World.existing",
    "ontology.parse_world",
    "meanings.atom_meaning",
    "meanings.negate",
    "meanings.transversals",
    "meanings.disjoin",
    "meanings.memberwise_union",
    "meanings.is_true",
    "meanings.render_meaning",
    "propsem.eval_prop",
    "propsem.classify",
    "propsem.enumerate_assignments",
    "fosem.eval_fo",
    "fosem.default_binding",
    "fosem.enumerate_worlds",
    "fosem.logical_truth",
    "oracle.truth_table_eval",
    "oracle.tarski_eval",
    "oracle.enumerate_formulas",
    "oracle.check_equivalence",
    "proof.check_proof",
    "cli.build_parser",
    "cli.main",
)

SPAN_CAP = 100_000


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None if absent."""
    module_name, *path = target.split(".")
    try:
        owner = importlib.import_module(f"pmsem.{module_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        return owner, path[-1], getattr(owner, path[-1])
    except (ImportError, AttributeError):
        return None


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls = {t: 0 for t in targets}
        self.self_s = {t: 0.0 for t in targets}
        self.absent: list[str] = []
        self.max_members = 0
        self.max_union_pairs = 0
        self.op_id = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [child seconds, span index] per open span
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def install(self) -> None:
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "pmsem" and not name.startswith("pmsem."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def begin_op(self) -> None:
        """Give the next spans a new op id.  Spans an op left open when a
        deadline cut it short are dropped from the stack."""
        self.op_id += 1
        self._stack.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: str, fn):
        stack = self._stack
        spans = self.spans
        measure_family = target == "meanings.transversals"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if measure_family and args and isinstance(args[0], (set, frozenset, list, tuple)):
                family = args[0]
                self.max_members = max(self.max_members, len(family))
                self.max_union_pairs = max(
                    self.max_union_pairs, len(frozenset().union(*family))
                )
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if len(spans) < SPAN_CAP:
                frame[1] = len(spans)
                spans.append(None)
            else:
                self.spans_dropped += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.calls[target] += 1
                self.self_s[target] += (end - start) - frame[0]
                if stack:
                    # The family measurement above counts as neither
                    # this span's nor its parent's own time.
                    stack[-1][0] += end - entered
                if frame[1] >= 0:
                    spans[frame[1]] = (target, self.op_id, parent, start, end)

        return wrapper

    def write_spans(self, path) -> None:
        fields = ("name", "op", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": fields,
                    "dropped": self.spans_dropped,
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )
