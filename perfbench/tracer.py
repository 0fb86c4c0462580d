"""Outside-in tracer for the sigmabuild modules.

`Tracer.install()` wraps the public functions of every sigmabuild layer module,
and the public methods (plus the dunders in `DUNDERS`) of the classes defined
there, then rebinds every alias of a wrapped function in the `sigmabuild.*`
namespaces, e.g. `feasible_point` as imported by name into `coxeter` and
`sigma`.  Methods are patched on their class, so `self.facets(...)` inside a
method is traced too.  The program itself is not modified.

While `enabled` is true every call records one span (name, parent, start,
end).  Spans stay in memory in flat arrays; `summary()` turns them into
per-name call counts, self times and outermost inclusive times, and
`write()` dumps them at the end of the traced pass.
"""

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "root_system",
    "coxeter",
    "windows",
    "spherical",
    "chevalley",
    "building",
    "complexes",
    "homology",
    "linalg",
    "sigma",
    "acceptance",
)

# Helpers that do a few Fraction operations per call and are called millions
# of times: a span costs more than their body, so wrapping them would mostly
# measure the tracer.  Their time lands in the self time of the caller.
HOT = {
    "linalg.vec",
    "linalg.dot",
    "linalg.vadd",
    "linalg.vsub",
    "linalg.vscale",
    "linalg.mat",
    "linalg.matvec",
    "linalg.fraction_str",
    "root_system.RootDatum.kappa",
    "root_system.RootDatum.root_value",
    "coxeter.AlcoveGeometry.root_value",
    "coxeter.AlcoveGeometry.is_chamber",
    "coxeter.AlcoveGeometry.wall_distance",
    "complexes.CellComplex.facets",
    "complexes.CellComplex.cofacets",
    "complexes.CellComplex.dim_of",
}

# Dunders that do real work and that the per-layer metrics name.
DUNDERS = {"__init__", "__mul__", "__pow__"}


def _is_public(name):
    return not name.startswith("_") or name in DUNDERS


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # 1 if no enclosing span has the same name
        self._stack = [-1]
        self._active = []
        self.counters = {}
        self._seen = {}
        self._keep = []  # objects whose id() keys the memo sets stay alive

    # --- recording ----------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def memo_lookup(self, name, owner, key):
        """Count a call as a hit when (owner, key) was already seen under `name`."""
        seen = self._seen.setdefault(name, set())
        full = (id(owner), key)
        if full in seen:
            self.count(name + ".hits")
        else:
            seen.add(full)
            self._keep.append(owner)

    def active(self, name):
        nid = self._ids.get(name)
        return nid is not None and self._active[nid] > 0

    def wrap(self, name, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        tracer = self
        active = self._active
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1])
            tracer.span_outer.append(active[nid] == 0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # --- installation -------------------------------------------------------

    def install(self, package="sigmabuild"):
        """Wrap every layer module of `package` and rebind all aliases."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") and name not in HOT:
                        replaced[obj] = self.wrap(name, obj)
                        setattr(mod, attr, replaced[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, mod, obj)
        for mod in _package_modules(package):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _install_class(self, layer, mod, cls):
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if not _is_public(attr) or name in HOT:
                continue
            kind = None
            fn = member
            if isinstance(member, (staticmethod, classmethod)):
                kind, fn = type(member), member.__func__
            if not inspect.isfunction(fn):
                continue
            # dataclass-generated methods are compiled from strings
            if fn.__code__.co_filename != mod.__file__:
                continue
            wrapped = self.wrap(name, fn)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # --- results --------------------------------------------------------------

    def span_count(self):
        return len(self.span_name)

    def summary(self):
        """Per span name: calls, self seconds, outermost inclusive seconds."""
        n = len(self.span_name)
        names, parent = self.span_name, self.span_parent
        start, end, outer = self.span_start, self.span_end, self.span_outer
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per = {}
        for i in range(n):
            dur = end[i] - start[i]
            entry = per.get(names[i])
            if entry is None:
                entry = per[names[i]] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur - child[i]
            if outer[i]:
                entry[2] += dur
        return {
            self.names[k]: {"calls": c, "self_s": s, "incl_s": t}
            for k, (c, s, t) in per.items()
        }

    def write(self, path):
        """Dump the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path):
    """Load a file written by `Tracer.write` as (names, list of span tuples)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols.append(arr)
    return header["names"], list(zip(*cols))


def _package_modules(package):
    prefix = package + "."
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    ]


# --- observers: work counters taken at the same boundaries as the spans ------


def _feasible_point(tracer, args, result):
    tracer.count("linalg.feasible_point.feasible", result is not None)
    tracer.count("linalg.feasible_point.constraints", len(args[1]))
    if tracer.active("sigma.finiteness_type"):
        tracer.count("sigma.finiteness_type.feasible_point")


def _cells(tracer, args, result):
    tracer.count("complexes.CellComplex.cells.returned", len(result))


def _chain_complex(tracer, args, result):
    tracer.count("homology.ChainComplexF2.cells", len(args[1]))


def _truncation(tracer, args, result):
    trunc = args[0]
    tracer.count("building.chambers", len(trunc.chambers))
    tracer.count("building.cells", len(trunc.complex))


def _memo(name, key_of):
    def observe(tracer, args, result):
        tracer.memo_lookup(name, args[0], key_of(args))

    return observe


OBSERVERS = {
    "linalg.feasible_point": _feasible_point,
    "complexes.CellComplex.cells": _cells,
    "homology.ChainComplexF2.__init__": _chain_complex,
    "building.Truncation.__init__": _truncation,
    "building.Truncation.retract_cell": _memo("building.Truncation.retract_cell", lambda a: a[1]),
    "coxeter.AlcoveGeometry.project_toward": _memo(
        "coxeter.AlcoveGeometry.project_toward", lambda a: (a[1], a[2].signs)
    ),
}
for _method in ("facets", "witness", "vertices", "barycenter"):
    _name = f"coxeter.AlcoveGeometry.{_method}"
    OBSERVERS[_name] = _memo(_name, lambda a: a[1])
