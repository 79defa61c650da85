"""Spans around semiband's public functions and methods, from outside.

`install` wraps every public function and every public method of the classes
defined in the layer modules, and rebinds the wrapped functions wherever a
layer module imported them by name (energy, frames and dynamics each do
`from semiband.stencils import derivative_along`).  A span records its name,
its parent span, the benchmark operation it belongs to, and its start and end.
Spans are kept in flat arrays while the run lasts and written out at the end.
Wrappers record nothing outside an operation, so checks and set-up stay out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# Each module is a layer of its own here; the layer metrics count fields
# into models and also report it on its own.
LAYERS = ("models", "fields", "frames", "stencils", "energy", "dynamics",
          "weyl", "cli")
# The exact algebra does its work in operators, so those are spans too.
WEYL_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__")


class Tracer:
    def __init__(self):
        self.names: list = []           # "layer:qualname"
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.ops: list = []             # (kind, label) per operation
        self.op_times: list = []        # (start, end) per operation
        self.current = -1
        self.active = False

    def begin_op(self, kind: str, label: str) -> None:
        self.ops.append((kind, label))
        self.op_times.append((perf_counter(), 0.0))
        self.current = -1
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.op_times[-1] = (self.op_times[-1][0], perf_counter())

    def wrap(self, fn, layer: str, qualname: str):
        key = f"{layer}:{qualname}"
        name_id = self.name_ids.setdefault(key, len(self.names))
        if name_id == len(self.names):
            self.names.append(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.t1)
            parent = tracer.current
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.op.append(len(tracer.ops) - 1)
            tracer.t1.append(0.0)
            tracer.current = idx
            tracer.t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.t1[idx] = perf_counter()
                tracer.current = parent

        return traced

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"semiband.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(obj, layer, attr)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for layer in (*LAYERS, None):
            mod = importlib.import_module(
                "semiband" if layer is None else f"semiband.{layer}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, cls, layer: str) -> None:
        extra = WEYL_OPERATORS if layer == "weyl" else ()
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(
                    self.wrap(member.__func__, layer, qualname)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, layer, qualname))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            t0=np.asarray(self.t0), t1=np.asarray(self.t1),
            op_kind=np.array([k for k, _ in self.ops]),
            op_label=np.array([lab for _, lab in self.ops]))

    def spans(self, sampler) -> "Spans":
        return Spans(self, sampler)


class Spans:
    """Span arrays with the per-operation sums the layer metrics need.

    Spans are selected through their integer name ids; a traced run holds
    millions of them.  Times are scaled per operation to the reference speed,
    like the end-to-end times (speed.py).
    """

    def __init__(self, tracer: Tracer, sampler):
        self.names = tracer.names
        self.name = np.asarray(tracer.name)
        self.parent = np.asarray(tracer.parent)
        self.op = np.asarray(tracer.op)
        self.ops = tracer.ops
        self.op_scale = np.array([sampler.scale(t0, t1)
                                  for t0, t1 in tracer.op_times])
        self.dur = np.asarray(tracer.t1) - np.asarray(tracer.t0)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent], minlength=self.dur.size)
        self.self_time = self.dur - child
        # Name id of each span's parent, -1 at the top of an operation.
        self.parent_name = np.where(has_parent,
                                    self.name[np.maximum(self.parent, 0)], -1)

    def ids(self, layers=None, short: str | None = None) -> list:
        """Name ids in the given layers whose last name part is `short`."""
        out = []
        for i, key in enumerate(self.names):
            layer, qualname = key.split(":")
            if layers is not None and layer not in layers:
                continue
            if short is not None and qualname.split(".")[-1] != short:
                continue
            out.append(i)
        return out

    def mask(self, layers=None, short: str | None = None,
             parent: str | None = None) -> np.ndarray:
        m = np.isin(self.name, self.ids(layers, short))
        if parent is not None:
            m &= np.isin(self.parent_name, self.ids(None, parent))
        return m

    def per_op(self, mask: np.ndarray, seconds: np.ndarray | None = None) -> np.ndarray:
        """Scaled sum of seconds (or a count) over the masked spans, per
        operation."""
        if seconds is None:
            return np.bincount(self.op[mask], minlength=len(self.ops)).astype(float)
        return self.op_scale * np.bincount(
            self.op[mask], weights=seconds[mask], minlength=len(self.ops))

    def mean_per_op(self, per_op: np.ndarray, kind: str, weights: dict) -> float:
        """Weighted mean over labels of the mean per operation of one kind."""
        total = norm = 0.0
        for label, weight in weights.items():
            idx = [i for i, (k, lab) in enumerate(self.ops)
                   if k == kind and lab == label]
            if idx:
                total += weight * float(np.mean(per_op[idx]))
                norm += weight
        return total / norm

    def calls(self, layer: str, short: str) -> np.ndarray:
        return self.per_op(self.mask((layer,), short))

    def layer_self(self, *layers: str) -> np.ndarray:
        return self.per_op(self.mask(layers), self.self_time)

    def inclusive(self, mask: np.ndarray) -> np.ndarray:
        return self.per_op(mask, self.dur)
