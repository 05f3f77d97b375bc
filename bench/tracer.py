"""Spans and call counts recorded from outside the program.

:class:`Tracer` replaces every public function of the traced ``momentmap``
modules by a timing wrapper, in every ``momentmap`` module namespace that
holds a reference to it.  Modules import names directly (``from .linalg
import hermitian_exp``), so patching only the defining module would miss the
calls made through the importers; ``frechet_exp``, which
``kempf_ness_gradient`` imports at call time, is caught because the defining
module is patched as well.  Dataclass ``__post_init__`` hooks of the classes in
:data:`CONSTRUCTED` are wrapped to count constructions.

Spans live in flat in-memory arrays (name, start, end, parent, operation) and
are written out once, by :meth:`Tracer.save`, when the run ends.  Self time is
a span's duration minus the durations of its direct children; spans nest
because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: The program's layers, one per ``src/momentmap`` module.
LAYERS = ("quiver", "linalg", "moment", "solver", "cyclic", "adhm", "nekrasov", "fock", "cli")

#: Dataclasses whose constructions are counted, as ``(layer, class name)``.
CONSTRUCTED = (("adhm", "ADHMData"), ("fock", "HbarPoly"))

#: Operation id of spans recorded while the workload's inputs are generated.
SETUP_OP = -1

#: Span name of the root span the runner opens around each operation.
OP_SPAN = "bench.op"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self.op_id = SETUP_OP
        self.constructions: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._intern(name)
        name_id, start, end, parent, op = (
            self.name_id, self.start, self.end, self.parent, self.op
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as operation ``op_id`` inside a root :data:`OP_SPAN`."""
        self.op_id = op_id
        try:
            return self.wrap(OP_SPAN, fn)()
        finally:
            self.op_id = SETUP_OP

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every layer in all ``momentmap``
        namespaces, and count constructions of :data:`CONSTRUCTED`."""
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "momentmap" or key.startswith("momentmap.")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"momentmap.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        for layer, cls_name in CONSTRUCTED:
            cls = getattr(sys.modules[f"momentmap.{layer}"], cls_name)
            original = cls.__post_init__
            label = f"{layer}.{cls_name}"
            counts = self.constructions

            def counted(obj, *args, _original=original, _label=label, **kwargs):
                counts[_label] += 1
                return _original(obj, *args, **kwargs)

            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = counted

    def uninstall(self) -> None:
        """Restore every name :meth:`install` replaced."""
        while self._undo:
            ns, key, original = self._undo.pop()
            setattr(ns, key, original)

    # -- analysis --------------------------------------------------------
    def arrays(self):
        """Span table as numpy arrays: names, start, end, parent, op, self."""
        names, start, end, parent, op = (
            np.array(a) for a in (self.name_id, self.start, self.end, self.parent, self.op)
        )
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return names, start, end, parent, op, duration - child

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        names, _, _, _, _, self_s = self.arrays()
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=self_s, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write the span table and the name list to ``path`` (``.npz``)."""
        names, start, end, parent, op, self_s = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_names=np.array(self.names),
            name=names,
            start=start,
            end=end,
            parent=parent,
            op=op,
            self_s=self_s,
        )
