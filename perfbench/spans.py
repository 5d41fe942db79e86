"""Span tracing of armseq's public functions, installed from outside the package.

Each traced function is replaced by a wrapper wherever its name is bound: in
the module that defines it and in every armseq module that imported it by
name. A call made while tracing is on records one span: name, start, end,
parent span, the benchmark phase it ran in, and one integer summarising the
outcome (a boolean result, a list length, or -1 when the call raised).

Spans are kept in flat arrays and turned into per-layer figures when the run
ends. A span's self time is its duration minus the durations of its direct
children, which never overlap because the program runs on one thread.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

SETUP, OP = 0, 1


def _flag(out) -> int:
    return int(bool(out))


def _found(out) -> int:
    return int(out is not None)


def _size(out) -> int:
    return len(out)


def _maps(out) -> int:
    return len(out.maps)


def _edges(out) -> int:
    return len(out.edges)


def _zero(out) -> int:
    return 0


# (module, function, outcome summary)
TRACED = (
    ("world", "config_valid", _flag),
    ("world", "motion_valid", _flag),
    ("kinematics", "ik_solutions", _size),
    ("taskgraph", "build_graph", _edges),
    ("decomposition", "decompose", _maps),
    ("decomposition", "decompose_mobile", _maps),
    ("decomposition", "generate_map", _zero),
    ("decomposition", "get_mapping", _found),
    ("decomposition", "update", _flag),
    ("decomposition", "verify_gha", _zero),
    ("sequencer", "sequence", _zero),
    ("sequencer", "match_task", _zero),
    ("sequencer", "intra_subspace_trajectory", _zero),
    ("sequencer", "solve_tsp", _size),
    ("sequencer", "adapt_plan", _zero),
    ("motion", "adapt_trajectory", _zero),
    ("motion", "fallback_plan", _zero),
    ("motion", "trajectory_metrics", _zero),
)


class Tracer:
    """Records spans while installed; ``span`` also times the benchmark's own blocks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("b")
        self.value = array("q")
        self._stack = [-1]
        self._phase = SETUP
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.phase.append(self._phase)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, fn, summary):
        name_id = self._id(qualname)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.value[idx] = -1
                raise
            finally:
                self._close(idx)
            self.value[idx] = summary(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Rebind every traced function in each loaded armseq module that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "armseq" or n.startswith("armseq."))]
        for mod_name, fn_name, summary in TRACED:
            original = getattr(sys.modules["armseq." + mod_name], fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original, summary)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def span(self, name: str, phase: int):
        """Context manager for one benchmark-level span; sets the phase of its subtree."""
        return _Span(self, self._id(name), phase)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, name_id: int, phase: int):
        self.tracer = tracer
        self.name_id = name_id
        self.phase = phase

    def __enter__(self):
        self.saved = self.tracer._phase
        self.tracer._phase = self.phase
        self.idx = self.tracer._open(self.name_id)
        return self

    def set_value(self, value: int) -> None:
        self.tracer.value[self.idx] = value

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        self.tracer._phase = self.saved
        return False


class Totals:
    """Per-name span statistics for one phase, derived from a tracer's arrays."""

    def __init__(self, tracer: Tracer, phase: int):
        a = tracer.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        keep = a["phase"] == phase
        self.stats: dict[str, dict[str, float]] = {}
        for i, name in enumerate(tracer.names):
            sel = keep & (a["name"] == i)
            if not sel.any():
                continue
            v = a["value"][sel]
            self.stats[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "value_sum": int(v[v > 0].sum()),
                "value_max": int(v.max()),
                "raised": int((v < 0).sum()),
            }

    def get(self, name: str, key: str) -> float:
        return self.stats.get(name, {}).get(key, 0)
