"""Spans around the public functions of each interpolab module.

Tracer.install() replaces every public function of the program's
modules, wherever a module holds it as an attribute, and the public
methods of the classes in TRACED_CLASSES, with a wrapper that records a
span (name, start, end, parent, op id).  Spans stay in typed arrays in
memory and are written out once, at the end of a pass.  Counters kept
at the same boundaries give the ratios (edge tests that fire, repeated
weight evaluations, oracle cuts kept).

Only the benchmark's traced runs call install(); untraced runs never
import this module.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array

import numpy as np

MODULES = ("corpus", "grid", "sv", "spaces", "kfun", "holmstedt",
           "reiteration", "applications", "report", "cli")

# class -> span prefix for its public methods (and __init__)
TRACED_CLASSES = {("kfun", "TruncationOracle"): "kfun.oracle",
                  ("report", "EquivalenceReport"): "report"}

# descriptor class name -> kind tag of the JSON wire format
DESC_KINDS = {"EndpointX0": "x0", "EndpointX1": "x1", "ThetaSpace": "theta",
              "LSpace": "L", "RSpace": "R", "LLSpace": "LL",
              "RRSpace": "RR", "Intersection": "intersection",
              "AppMember": "app"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._sv_seen: set = set()

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # -- wrappers ------------------------------------------------------

    def wrap(self, fn, name, name_of=None, after=None):
        """Span around fn.  name_of(args) may refine the span name;
        after(args, kwargs, result) updates counters once the span has
        closed, so its cost stays out of the span."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack
        t_name, t_start, t_end = self.name, self.start, self.end
        t_parent, t_op = self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t_start)
            t_name.append(nid if name_of is None else name_of(args))
            t_parent.append(stack[-1])
            t_op.append(self.op_id)
            t_start.append(0.0)
            t_end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t_start[sid] = t0
                t_end[sid] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _special(self, short, attr):
        """(name_of, after) hooks for the functions with counters."""
        if (short, attr) == ("grid", "edge_divergent"):
            def after(args, kwargs, out):
                self.count("grid.edge_divergent.true", bool(out))
            return None, after
        if (short, attr) == ("sv", "sv_log_on_grid"):
            def after(args, kwargs, out):
                key = (args[0], args[1].key)
                if key in self._sv_seen:
                    self.count("sv.sv_log_on_grid.repeats")
                else:
                    self._sv_seen.add(key)
            return None, after
        if (short, attr) == ("kfun", "norm_in_space"):
            ids = {}

            def name_of(args):
                kind = DESC_KINDS.get(type(args[1]).__name__, "other")
                i = ids.get(kind)
                if i is None:
                    i = ids[kind] = self.name_id(f"kfun.norm_in_space.{kind}")
                return i
            return name_of, None
        return None, None

    def _oracle_after(self, args, kwargs, out):
        orc, fstar = args[0], args[1]
        f = fstar.values
        cuts = len(np.unique(f[f > 0]))
        cap = kwargs.get("max_cuts", args[4] if len(args) > 4 else None)
        if cap is not None:
            cuts = min(cuts, cap)
        self.count("kfun.oracle.cuts_attempted", cuts + 2)
        self.count("kfun.oracle.cuts_kept", len(orc.A))
        self.count("kfun.oracle.bytes_computed", cuts * fstar.grid.n * 8)

    def _write_after(self, args, kwargs, out):
        self.count("report.write.bytes",
                   sum(os.path.getsize(p) for p in out))

    def install(self, package) -> None:
        """Wrap the package's public functions and traced methods."""
        mods = {s: getattr(package, s) for s in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name_of, after = self._special(short, attr)
                wrapped[obj] = self.wrap(obj, f"{short}.{attr}", name_of,
                                         after)
        # rebind every module-level reference, including `from x import f`
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for (short, cname), prefix in TRACED_CLASSES.items():
            cls = getattr(mods[short], cname)
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj) or \
                        (attr.startswith("_") and attr != "__init__"):
                    continue
                span = "build" if attr == "__init__" else attr
                after = None
                if cname == "TruncationOracle" and attr == "__init__":
                    after = self._oracle_after
                if cname == "EquivalenceReport" and attr == "write":
                    after = self._write_after
                setattr(cls, attr, self.wrap(obj, f"{prefix}.{span}",
                                             None, after))

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        np.savez(path,
                 names=np.array(self.names, dtype=object).astype(str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent, int)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if len(kids) == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi = -1, 0.0, 0.0
    for i in order:
        p = parent[i]
        s = max(start[i], start[p])
        e = min(end[i], end[p])
        if p != cur:
            if cur >= 0:
                out[cur] -= hi - lo
            cur, lo, hi = p, s, max(s, e)
            continue
        if s > hi:
            out[cur] -= hi - lo
            lo, hi = s, max(s, e)
        else:
            hi = max(hi, e)
    out[cur] -= hi - lo
    return out
