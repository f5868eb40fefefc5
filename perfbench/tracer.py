"""Span tracer that wraps ndigvol's public functions from outside the package.

Each public function of the traced modules is replaced by a wrapper in every
``ndigvol`` module namespace that names it, including re-imported names such
as ``ndigvol.estimate.chf``: calls inside a module resolve through that
module's globals, so rebinding only the defining module would miss them.
Private helpers (leading underscore) are not wrapped; their cost shows as
self time of the public caller.

A span is (name, start, end, parent).  Spans stay in memory, in flat arrays,
until ``save`` writes them out.  Per-call counts that the timing needs as a
cross-check (evaluations, nodes, FFT points, rows, bytes) are read from the
arguments and results by small notes attached to specific functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = ("cli", "estimate", "model", "pricing", "volindex", "simulate", "io")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _note_fit(args, kwargs, result) -> dict:
    return {
        "warm": _arg(args, kwargs, 2, "initial") is not None,
        "evals": result.evaluations,
        "converged": result.converged,
        "objective": result.objective_value,
    }


def _note_written(args, kwargs, result) -> dict:
    path, payload = args[:2]  # cli.run_command passes (path, payload, config)
    if hasattr(payload, "paths"):
        rows = payload.paths.size
    elif hasattr(payload, "call_prices"):
        rows = payload.call_prices.size
    elif hasattr(payload, "results"):
        rows = len(payload.results)
    else:
        rows = len(payload.values)
    return {"rows": rows, "bytes": os.path.getsize(path)}


_NOTES = {
    "estimate.fit": _note_fit,
    "model.chf": lambda a, k, r: {"nodes": np.size(_arg(a, k, 0, "v"))},
    "pricing.carr_madan_prices": lambda a, k, r: {"points": _arg(a, k, 2, "grid").n},
    "simulate.simulate_paths": lambda a, k, r: {"steps": r.paths.shape[0] * (r.paths.shape[1] - 1)},
    "volindex.bvix_from_rolling": lambda a, k, r: {"gaps": len(r[1])},
}


def _note_for(name: str):
    if name.startswith("io.write_"):
        return _note_written
    return _NOTES.get(name)


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed: list[int] = []  # indices of spans that raised
        self.notes: dict[str, list[tuple[int, dict]]] = defaultdict(list)
        self._stack = [-1]
        self._bindings = self._bind()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        nid, note, notes = self._id(name), _note_for(name), self.notes[name]
        name_id, parent, start, end, failed = (
            self.name_id, self.parent, self.start, self.end, self.failed)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                failed.append(idx)
                raise
            end[idx] = clock()
            stack.pop()
            if note is not None:
                notes.append((idx, note(args, kwargs, result)))
            return result

        return wrapper

    def _bind(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every public function of
        the traced modules, in every ndigvol namespace that names it."""
        import ndigvol

        wrappers: dict[int, object] = {}
        modules = [importlib.import_module(f"ndigvol.{short}") for short in TRACED_MODULES]
        for short, module in zip(TRACED_MODULES, modules):
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(value, f"{short}.{attr}")
        return [
            (ns, attr, value, wrappers[id(value)])
            for ns in [ndigvol, *modules]
            for attr, value in vars(ns).items()
            if id(value) in wrappers
        ]

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "start": start,
            "dur": dur,
            "self": dur - child,
            "failed": np.isin(np.arange(len(dur)), self.failed),
        }

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent) to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float),
        )
