"""In-memory span tracer for the traced benchmark run, and self-time arithmetic.

A span is (name, start, end, parent), with times in nanoseconds from
`time.perf_counter_ns` and `parent` the index of the innermost enclosing span
(-1 at top level).  Spans live in four flat arrays, so a traced covering
ladder (a few million spans) costs about 28 bytes per span, and are written
to disk only when the run ends.

`install_henoncert_tracing` wraps the public functions and methods of the
henoncert layers at run time; the program's own code is not edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters = {}
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name: str, on_result=None):
        """`fn` recording one span per call; `on_result(tracer, result, args)` adds counts."""
        nid = self._name(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def save(self, path) -> None:
        """Header line (names, counters, span count) then the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "counters": self.counters,
                      "spans": len(self.start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)


def load_spans(path):
    """Inverse of `Tracer.save`: (header, name_id, start, end, parent)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "q", "q", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def self_times(start, end, parent):
    """Per-span self time: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    are counted once.  Inputs are parallel sequences in any order.
    """
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)  # per parent: end of the covered prefix so far
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def summarize(name_id, start, end, parent, names):
    """{name: (calls, self seconds)} over all spans."""
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for nid, s in zip(name_id, self_times(start, end, parent)):
        calls[nid] += 1
        self_ns[nid] += s
    return {nm: (calls[k], self_ns[k] / 1e9) for k, nm in enumerate(names)}


# --- the henoncert layers ---------------------------------------------------

def _cond1_counts(tr, summary, args):
    tr.count("covering.cond1.boxes", summary.checked)
    tr.count("covering.cond1.accepted",
             summary.outside_unstable + summary.inside_stable)


def _cond2_counts(tr, summary, args):
    tr.count("covering.cond2.boxes", sum(f["checked"] for f in summary.faces))


def _verify_counts(tr, cert, args):
    tr.count("covering.certified", int(cert.passed))


def _map_pair_counts(tr, out, args):
    tr.count("hyperbolicity.boxes",
             out.skipped_disjoint + out.positive_definite + out.failed)
    tr.count("hyperbolicity.skipped", out.skipped_disjoint)
    tr.count("hyperbolicity.positive_definite", out.positive_definite)


def _save_counts(tr, _none, args):
    report, path = args[0], args[1]
    tr.count("report.bytes", os.path.getsize(path))
    tr.count("report.witnesses", sum(
        len(c.condition_I.failures) + len(c.condition_II.failures)
        for c in report.covering
    ) + (sum(len(o.failures) for o in report.hyperbolicity.outcomes)
         if report.hyperbolicity else 0))


# (module, attribute path, span name, result hook).  Functions are replaced in
# every henoncert module that imported them by name; methods on their class.
TRACED = [
    ("cli", "main", "cli", None),
    ("drivers", "run_all", "drivers", None),
    ("drivers", "run_symbolic", "drivers", None),
    ("drivers", "run_hyperbolicity", "drivers", None),
    ("drivers", "run_symbolic_report", "drivers", None),
    ("drivers", "run_hyperbolicity_report", "drivers", None),
    ("covering", "verify_covering", "covering.verify", _verify_counts),
    ("covering", "check_condition_I", "covering.cond1", _cond1_counts),
    ("covering", "check_condition_II", "covering.cond2", _cond2_counts),
    ("hyperbolicity", "check_map_pair", "hyperbolicity.map_pair", _map_pair_counts),
    ("hyperbolicity", "cone_matrix", "hyperbolicity.cone_matrix", None),
    ("henon", "IteratedMap.eval", "henon.eval", None),
    ("henon", "IteratedMap.jacobian", "henon.jacobian", None),
    ("henon", "IteratedMap.orbit", "henon.orbit", None),
    ("hsets", "HSet.world_from_local", "hsets.world_from_local", None),
    ("hsets", "HSet.local_from_world", "hsets.local_from_world", None),
    ("linalg", "IMatrix.__matmul__", "linalg.matmul", None),
    ("linalg", "is_positive_definite", "linalg.is_pd", None),
    ("report", "ProofReport.save", "report.save", _save_counts),
]


def install_henoncert_tracing(tracer: Tracer) -> None:
    import importlib

    mods = {m: importlib.import_module(f"henoncert.{m}")
            for m in ("intervals", "linalg", "henon", "hsets", "covering",
                      "hyperbolicity", "report", "drivers", "cli")}
    for mod, attr, span, hook in TRACED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod], cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), span, hook))
            continue
        fn = getattr(mods[mod], attr)
        wrapped = tracer.wrap(fn, span, hook)
        for m in list(mods.values()) + [sys.modules["henoncert"]]:
            if getattr(m, attr, None) is fn:
                setattr(m, attr, wrapped)
