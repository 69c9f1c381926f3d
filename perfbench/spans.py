"""Span recorder for the traced benchmark run.

Spans wrap the package's public entry points from outside: each wrapper
replaces the function everywhere a module of the package holds it (and
on the class, for methods), so callers pick it up where they look it up,
with no edit to the program.  A wrapper records only while an operation
is open, so the output checks between operations stay untraced.

Spans are kept in memory (name, operation id, parent, start, end) and
written out at the end.  A span's self time is its duration minus the
time its child spans cover.  Counts are taken at the same boundaries from
each call's result.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter


def _paths_found(result) -> dict:
    return {"joinchain.paths": sum(len(p) for p in result.paths.values())}


def _chains_found(result) -> dict:
    return {"joinchain.chains": len(result.chains), "joinchain.truncated": int(result.truncated)}


def _graph_built(result) -> dict:
    return {"fdg.vertices": len(result.vertices), "fdg.edges": len(result.edges)}


def _checked(result) -> dict:
    return {"consistency.cut_edges": len(result.cut) if result.consistent else 0}


def _decomposed(result) -> dict:
    done = result.result
    if done is None:
        return {}
    return {
        "decompose.fragments": len(done.fragments),
        "decompose.new_forbidden": len(done.new_forbidden),
    }


# span name -> (module, attribute path, count hook on the returned value)
SPANS = {
    "pipeline.secure_decompose": ("pipeline", "secure_decompose", _decomposed),
    "model.preprocess_policy": ("model", "preprocess_policy", None),
    "fdg.build_fdg": ("fdg", "build_fdg", _graph_built),
    "fdg.out_adjacency": ("fdg", "Fdg.out_adjacency", None),
    "joinchain.join_chains": ("joinchain", "join_chains", _chains_found),
    "joinchain.reverse_graph": ("joinchain", "reverse_graph", None),
    "joinchain.enumerate_simple_paths": ("joinchain", "enumerate_simple_paths", _paths_found),
    "consistency.check": ("consistency", "check", _checked),
    "cut.greedy_hitting_set": ("cut", "greedy_hitting_set", None),
    "cut.greedy_cut": ("cut", "greedy_cut", None),
    "cut.edges_to_forbidden_sets": ("cut", "edges_to_forbidden_sets", None),
    "decompose.decompose_relation": ("decompose", "decompose_relation", None),
    "decompose.assemble": ("decompose", "assemble", None),
    "pipeline.verify_decomposition": ("pipeline", "verify_decomposition", None),
    "pipeline.fragment_schema": ("pipeline", "fragment_schema", None),
}
COUNTS = (
    "fdg.vertices",
    "fdg.edges",
    "joinchain.paths",
    "joinchain.chains",
    "joinchain.truncated",
    "consistency.timeouts",
    "consistency.cut_edges",
    "decompose.fragments",
    "decompose.new_forbidden",
)


class Recorder:
    """Spans and counts of the operations run while ``op`` is set."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.op: int | None = None
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, name: str, fn, hook, timeout_type):
        """``fn`` recorded as span ``name``; ``timeout_type`` is counted as a timeout."""
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.span_name.append(name_id)
            self.span_op.append(op)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except timeout_type:
                self.counts["consistency.timeouts"] += 1
                raise
            finally:
                self.end[index] = perf_counter()
                self.start[index] = started
                self._stack.pop()
            if hook is not None:
                for key, value in hook(result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self, pkg) -> None:
        """Replace every span's function in all loaded package modules."""
        modules = [m for n, m in sys.modules.items() if n == pkg.__name__ or n.startswith(pkg.__name__ + ".")]
        timeout_type = pkg.consistency.ConsistencyTimeout
        for name, (module, attr, hook) in SPANS.items():
            owner = getattr(pkg, module, None)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue  # entry point gone: the span reports zero calls
            # Only the consistency span counts a deadline, once, where it fires.
            caught = timeout_type if name == "consistency.check" else ()
            wrapped = self.wrap(name, original, hook, caught)
            if outer:
                setattr(owner, leaf, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def self_ms(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [(e - s) * 1000.0 for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= (self.end[index] - self.start[index]) * 1000.0
        return own

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-operation calls and self time per span, and per-operation counts."""
        calls = [0] * len(self.names)
        own_total = [0.0] * len(self.names)
        for name_id, own in zip(self.span_name, self.self_ms()):
            calls[name_id] += 1
            own_total[name_id] += own
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id] / ops
            out[f"{name}.self_ms"] = own_total[name_id] / ops
        for key, value in self.counts.items():
            out[key] = value / ops
        paths = self.counts["joinchain.paths"]
        out["joinchain.chains_per_path"] = self.counts["joinchain.chains"] / paths if paths else 0.0
        # Every re-cut round ends in one more verification of the fragments.
        verify_id = self.names.index("pipeline.verify_decomposition")
        verifies: dict[int, int] = {}
        for name_id, op in zip(self.span_name, self.span_op):
            if name_id == verify_id:
                verifies[op] = verifies.get(op, 0) + 1
        out["pipeline.recut_rounds"] = sum(n - 1 for n in verifies.values()) / ops
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines, one per span, in start order."""
        own = self.self_ms()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index\top\tparent\tspan\tstart_ms\tduration_ms\tself_ms\n")
            origin = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.start[i] - origin) * 1000.0:.4f}\t"
                    f"{(self.end[i] - self.start[i]) * 1000.0:.4f}\t{own[i]:.4f}\n"
                )
