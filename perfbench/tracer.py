"""Spans around the public functions of circint, recorded from outside.

install() wraps every public function of each layer module (and the
construction checks of UnitSubgroup and CirculantSpec, and
OrbitPartition.validate) and rebinds the wrapper wherever the package
binds the original name, so calls between modules are traced too. Each
call records a span (name, parent, start, end) in memory; write() puts
them in a gzip'd JSON Lines file at the end, and totals() turns spans into
per-name call counts and self times (span time minus child spans).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("residues", "fields", "orbits", "integrality", "cyclotomic", "oracle", "verify", "cli")

# Class members traced under their own names, besides the public functions.
METHODS = {
    "residues.UnitSubgroup": ("residues", "UnitSubgroup", "__post_init__"),
    "integrality.CirculantSpec": ("integrality", "CirculantSpec", "__post_init__"),
    "orbits.OrbitPartition.validate": ("orbits", "OrbitPartition", "validate"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._open = Counter()
        self.counters: Counter = Counter()
        self._keys: dict[str, set] = defaultdict(set)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self._open[name] += 1
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int, raised: bool = False) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()
        name = self.names[self.name_id[i]]
        self._open[name] -= 1
        if raised:
            self.counters[name + ".raised"] += 1

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def distinct(self, name: str, key) -> bool:
        """Record a key; True the first time it is seen."""
        seen = self._keys[name]
        if key in seen:
            return False
        seen.add(key)
        self.counters[name + ".distinct_keys"] += 1
        return True

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "counters": dict(self.counters),
                                  "fields": ["name", "parent", "start_ns", "end_ns"]}) + "\n")
            for row in zip(self.name_id, self.parent, self.start, self.end):
                out.write("[%d,%d,%d,%d]\n" % row)

    def totals(self) -> Counter:
        out = span_totals(self.names, self.name_id, self.parent, self.start, self.end)
        out.update(self.counters)
        return out


def span_totals(names, name_id, parent, start, end) -> Counter:
    """<name>.calls and <name>.self_ms for every span name."""
    out: Counter = Counter()
    if not len(start):
        return out
    nid = np.asarray(name_id, dtype=np.int64)
    par = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = np.bincount(nid, weights=dur - child, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    for i, name in enumerate(names):
        out[name + ".calls"] += int(calls[i])
        out[name + ".self_ms"] += float(self_ns[i]) / 1e6
    return out


def read_totals(path) -> Counter:
    """The totals of a trace file written by another process."""
    with gzip.open(path, "rt") as src:
        head = json.loads(src.readline())
        rows = np.array([json.loads(line) for line in src], dtype=np.int64).reshape(-1, 4)
    out = span_totals(head["names"], rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])
    out.update(head["counters"])
    return out


def _wrap(tracer: Tracer, name: str, fn):
    after = _AFTER.get(name)
    before = _BEFORE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before:
            before(tracer, args)
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i, raised=True)
            raise
        tracer.close(i)
        return after(tracer, args, result) if after else result

    return traced


def _traced_stream(tracer: Tracer, name: str, stream):
    """Each resumption of a generator is a span of the generator's name."""
    while True:
        i = tracer.open(name)
        try:
            item = next(stream)
        except StopIteration:
            tracer.close(i)
            return
        except BaseException:
            tracer.close(i, raised=True)
            raise
        tracer.close(i)
        tracer.counters[name + ".sets"] += 1
        yield item


def _after_orbit_partition(tracer, args, part):
    if tracer.distinct("orbits.orbit_partition", (args[0], args[1])):
        tracer.counters["orbits.blocks"] += len(part.blocks)
    return part


def _after_cross_verify(tracer, args, report):
    tracer.counters["verify.cross_verify.cases"] += report.cases_checked
    return report


def _before_cyc_equal(tracer, args):
    if tracer.inside("oracle.oracle_is_integral"):
        tracer.counters["oracle.comparisons"] += 1


def _before_galois_subgroup_mod(tracer, args):
    tracer.distinct("fields.galois_subgroup_mod", (args[0], args[1]))


_BEFORE = {
    "cyclotomic.cyc_equal": _before_cyc_equal,
    "fields.galois_subgroup_mod": _before_galois_subgroup_mod,
}
_AFTER = {
    "orbits.orbit_partition": _after_orbit_partition,
    "verify.cross_verify": _after_cross_verify,
    "integrality.enumerate_integral":
        lambda tracer, args, stream: _traced_stream(tracer, "integrality.enumerate_integral", stream),
}


def install(tracer: Tracer) -> None:
    """Wrap the layers of the circint package in place."""
    for layer in LAYERS:
        importlib.import_module("circint." + layer)
    modules = [m for name, m in sys.modules.items() if name == "circint" or name.startswith("circint.")]
    swaps = {}
    for layer in LAYERS:
        mod = sys.modules["circint." + layer]
        for attr, value in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == mod.__name__:
                swaps[id(value)] = (value, _wrap(tracer, f"{layer}.{attr}", value))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in swaps and swaps[id(value)][0] is value:
                setattr(mod, attr, swaps[id(value)][1])
    for name, (layer, cls_name, method) in METHODS.items():
        cls = getattr(sys.modules["circint." + layer], cls_name)
        setattr(cls, method, _wrap(tracer, name, getattr(cls, method)))
