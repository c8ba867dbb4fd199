"""Per-layer tracing for the benchmark's traced run.

The tracer replaces each function a module calls across a module
boundary, as it is bound in the caller's namespace (``oracle._rows_k_idempotent``,
``structure._tarjan``, ``cli.decompose`` ...), with a wrapper that counts
calls and keeps inclusive and child time per layer name. Nothing under
``src/`` is edited: wrappers exist only between ``install`` and
``restore``. Aggregates stay in memory; no span is written out.
"""

from __future__ import annotations

import importlib
import time

from kidempotent.structure import StructureError

# (module, attribute as bound there, layer name). A module-internal call
# is listed where the layer it enters is worth its own number.
HOOKS = [
    ("matrix01", "_sat_mul_rows", "matrix01.sat_mul"),
    ("structure", "_sat_power_rows", "structure.power_route"),
    ("structure", "_analyze_rows", "structure.analyze"),
    ("structure", "_tarjan", "digraph.tarjan"),
    ("structure", "_compose_rows", "structure.compose"),
    ("structure", "permute", "matrix01.permute"),
    ("extremal", "_compose_rows", "structure.compose"),
    ("extremal", "is_k_idempotent", "structure.is_k_idempotent"),
    ("oracle", "census", "oracle.census"),
    ("oracle", "_sweep", "oracle.sweep"),
    ("oracle", "upper_triangular_check", "oracle.upper_triangular_check"),
    ("oracle", "_rows_k_idempotent", "oracle.candidate"),
    ("oracle", "_accepts_rows", "structure.accepts"),
    ("oracle", "decompose", "structure.decompose"),
    ("oracle", "permute", "matrix01.permute"),
    ("oracle", "to_text", "matrix01.to_text"),
    ("oracle", "matches_maximum_form", "extremal.matches_maximum_form"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_decompose", "cli.decompose"),
    ("cli", "cmd_compose", "cli.compose"),
    ("cli", "cmd_index", "cli.index"),
    ("cli", "cmd_extremal", "cli.extremal"),
    ("cli", "from_text", "matrix01.from_text"),
    ("cli", "to_text", "matrix01.to_text"),
    ("cli", "permute", "matrix01.permute"),
    ("cli", "power_failure", "structure.power_failure"),
    ("cli", "decompose", "structure.decompose"),
    ("cli", "parse_decomposition", "structure.parse"),
    ("cli", "serialize_decomposition", "structure.serialize"),
    ("cli", "_compose_rows", "structure.compose"),
    ("cli", "idempotency_index", "structure.index"),
    ("cli", "extremal_families", "extremal.extremal_families"),
    ("cli", "construct_extremal", "extremal.construct_extremal"),
    ("cli", "family_line", "extremal.family_line"),
]

CLI_SPANS = ("cli.main", "cli.check", "cli.decompose", "cli.compose", "cli.index", "cli.extremal")


def _note_candidate(extra, parent, args, result, elapsed):
    if parent != "oracle.upper_triangular_check":
        extra["oracle.candidates"] += 1
        extra["oracle.members"] += bool(result)


def _note_decompose(extra, parent, args, result, elapsed):
    if isinstance(result, StructureError):
        extra["structure.decompose.reject_busy_s"] += elapsed


def _note_from_text(extra, parent, args, result, elapsed):
    extra["matrix01.from_text.bytes"] += len(args[0])


def _note_to_text(extra, parent, args, result, elapsed):
    extra["matrix01.to_text.bytes"] += len(result)


NOTES = {
    "oracle.candidate": _note_candidate,
    "structure.decompose": _note_decompose,
    "matrix01.from_text": _note_from_text,
    "matrix01.to_text": _note_to_text,
}


class Tracer:
    """Counts and busy time per layer, summed over the traced passes.

    ``install`` and ``restore`` may alternate; the sums carry over.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, child s]
        self.extra: dict[str, float] = dict.fromkeys(
            ("oracle.candidates", "oracle.members", "structure.decompose.reject_busy_s",
             "matrix01.from_text.bytes", "matrix01.to_text.bytes"), 0)
        self.missing: list[str] = []
        self._stack = [[None, 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        extra = self.extra
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
            if note is not None:
                note(extra, parent[0], args, result, elapsed)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(f"kidempotent.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                self.stats.setdefault(name, [0, 0.0, 0.0])
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self, overhead_s: float, passes: int = 1) -> dict[str, float]:
        """Per-layer metrics of one pass, by name; each ratio is 0 when its base is 0."""
        calls = {name: s[0] / passes for name, s in self.stats.items()}
        busy = {name: s[1] / passes for name, s in self.stats.items()}
        self_s = {name: (s[1] - s[2]) / passes for name, s in self.stats.items()}
        x = {key: value / passes for key, value in self.extra.items()}
        out = {
            "matrix01.sat_mul.calls": calls["matrix01.sat_mul"],
            "matrix01.sat_mul.busy_s": busy["matrix01.sat_mul"],
            "matrix01.sat_mul.per_decision": _ratio(calls["matrix01.sat_mul"], calls["structure.power_route"]),
            "structure.power_route.calls": calls["structure.power_route"],
            "structure.power_route.busy_s": busy["structure.power_route"],
            "structure.analyze.calls": calls["structure.analyze"],
            "structure.analyze.busy_s": busy["structure.analyze"],
            "structure.analyze.calls_per_candidate": _ratio(calls["structure.analyze"], x["oracle.candidates"]),
            "digraph.tarjan.calls": calls["digraph.tarjan"],
            "digraph.tarjan.busy_s": busy["digraph.tarjan"],
            "structure.decompose.busy_s": busy["structure.decompose"],
            "structure.decompose.reject_busy_s": x["structure.decompose.reject_busy_s"],
            "structure.compose.busy_s": busy["structure.compose"],
            "structure.serialize.busy_s": busy["structure.serialize"],
            "structure.parse.busy_s": busy["structure.parse"],
            "structure.index.busy_s": busy["structure.index"],
            "matrix01.from_text.busy_s": busy["matrix01.from_text"],
            "matrix01.from_text.bytes": x["matrix01.from_text.bytes"],
            "matrix01.to_text.busy_s": busy["matrix01.to_text"],
            "matrix01.to_text.bytes": x["matrix01.to_text.bytes"],
            "matrix01.permute.calls": calls["matrix01.permute"],
            "matrix01.permute.busy_s": busy["matrix01.permute"],
        }
        for span in CLI_SPANS[1:]:
            out[f"{span}.busy_s"] = busy[span]
        out["cli.self_s"] = sum(self_s[span] for span in CLI_SPANS)
        out.update({
            "oracle.census.busy_s": busy["oracle.census"],
            "oracle.sweep.self_s": self_s["oracle.sweep"],
            "oracle.candidates": x["oracle.candidates"],
            "oracle.members": x["oracle.members"],
            "oracle.upper_triangular_check.busy_s": busy["oracle.upper_triangular_check"],
            "extremal.matches_maximum_form.calls": calls["extremal.matches_maximum_form"],
            "extremal.matches_maximum_form.busy_s": busy["extremal.matches_maximum_form"],
            "extremal.extremal_families.busy_s": busy["extremal.extremal_families"],
            "trace.overhead_s": overhead_s,
        })
        return out


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0
