"""Tracing from outside the program: wrap public functions of each layer.

Every wrapped function is replaced at every name it is bound to (each
`infrared` module that imported it, or its class for methods).  Wrappers of
two kinds exist: a span wrapper records (name, start, end, parent) into
compact arrays, and a count wrapper only bumps a counter, for functions
called too often to span cheaply (`orient`, `MatQ.__init__`, ...).

A layer is a module of the package.  A span's self time is its duration minus
that of its child spans; a layer's self time sums its spans' self times, so
unwrapped helpers are charged to the nearest wrapped caller.  `cli.main` is
the root span of each instance, so the layer self times add up to the time
spent in `main`.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("geometry", "paths", "fourier", "linalg", "perverse", "wallcross",
          "secondary", "lp", "cli")


def _events(counts, result, args):
    for ev in result:
        if ev.kind == "horiz":
            counts["geometry.events.horiz"] += 1
        elif ev.time.rational is not None:
            counts["geometry.events.coll_rational"] += 1
        else:
            counts["geometry.events.coll_irrational"] += 1


def _found(counts, result, args):
    counts["paths.found"] += len(result)


def _subdivisions(counts, result, args):
    counts["secondary.subdivisions"] += len(result)


def _regular(counts, result, args):
    counts["secondary.regular" if result is not None else "secondary.irregular"] += 1


def _lp(counts, result, args):
    c, rows, _ = args
    if result[0] <= 0:
        counts["lp.maximize.nonpositive"] += 1
    counts["lp.tableau_entries"] += (len(rows) + 1) * (2 * len(c) + len(rows) + 1)


# (span name, module, attribute path, span?, result hook).  Names without a
# span only count calls.  `factorization_check` and `transport_along_path`
# are spanned so that the glue they run is charged to their own layer.
TARGETS = (
    ("geometry.general_position", "geometry", "general_position", True, None),
    ("geometry.orient", "geometry", "orient", False, None),
    ("geometry.segment_wall_events", "geometry", "segment_wall_events", True, _events),
    ("geometry.AlgebraicTime.refine", "geometry", "AlgebraicTime.refine", False, None),
    ("paths.enumerate_zeta_convex_paths", "paths", "enumerate_zeta_convex_paths", True, _found),
    ("fourier.stokes_pair", "fourier", "stokes_pair", True, None),
    ("fourier.iterated_transport", "fourier", "iterated_transport", True, None),
    ("fourier.factorization_check", "fourier", "factorization_check", True, None),
    ("linalg.MatQ.matmul", "linalg", "MatQ.__matmul__", True, None),
    ("linalg.MatQ.inverse", "linalg", "MatQ.inverse", True, None),
    ("linalg.MatQ.new", "linalg", "MatQ.__init__", False, None),
    ("perverse.TransportData.new", "perverse", "TransportData.__init__", True, None),
    ("perverse.TransportData.replace", "perverse", "TransportData.replace", False, None),
    ("perverse.gmv_embed", "perverse", "gmv_embed", True, None),
    ("wallcross.apply_crossing", "wallcross", "apply_crossing", True, None),
    ("wallcross.transport_along_path", "wallcross", "transport_along_path", True, None),
    ("secondary.enumerate_subdivisions", "secondary", "enumerate_subdivisions", True, _subdivisions),
    ("secondary.is_regular", "secondary", "is_regular", True, _regular),
    ("secondary.deformation_complex", "secondary", "deformation_complex", True, None),
    ("secondary.refinement_poset", "secondary", "refinement_poset", True, None),
    ("secondary.refines", "secondary", "refines", False, None),
    ("lp.maximize", "lp", "maximize", True, _lp),
    ("cli.Instance.load", "cli", "Instance.load", True, None),
    ("cli.main", "cli", "main", True, None),
)


class Tracer:
    """Span and counter store for one traced run; install() and uninstall()
    swap the wrappers in and out around each traced instance."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._swaps = self._plan()

    # -- wrapping ----------------------------------------------------------

    def _wrap_span(self, fn, nid, hook):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        counts, clock = self.counts, time.perf_counter_ns
        calls = self.names[nid] + ".calls"

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counts[calls] += 1
            if hook is not None:
                hook(counts, result, args)
            return result

        return wrapper

    def _wrap_count(self, fn, name):
        counts, calls = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _plan(self):
        """(owner, attribute, original, wrapped) for every binding."""
        import infrared.cli  # noqa: F401  (loads every module the CLI uses)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "infrared" or name.startswith("infrared.")}
        swaps = []
        for nid, (name, module, attr, spanned, hook) in enumerate(TARGETS):
            owner = mods["infrared." + module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = self._wrap_span(fn, nid, hook) if spanned else self._wrap_count(fn, name)
            if isinstance(raw, staticmethod):
                new = staticmethod(new)
            if path:  # a method: its class is the one binding
                swaps.append((owner, leaf, raw, new))
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        swaps.append((mod, key, fn, new))
        return swaps

    def install(self):
        for owner, key, _, new in self._swaps:
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old, _ in self._swaps:
            setattr(owner, key, old)

    # -- aggregation -------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def summarize(self, first: int) -> dict:
        """Per-layer totals for the spans recorded since index `first`, plus
        the counters, which are then reset."""
        last = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        child = [0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            out[layer + ".self_s"] += (dur[i - first] - child[i - first]) / 1e9
            # .s counts only outermost calls of a name, so recursion and
            # re-entry are not summed twice
            p, nid = self.parent[i], self.name_id[i]
            while p >= first and self.name_id[p] != nid:
                p = self.parent[p]
            if p < first:
                key = name + ".s"
                out[key] = out.get(key, 0.0) + dur[i - first] / 1e9
        out.update(self.counts)
        out["trace.spans"] = last - first
        self.counts.clear()
        return out

    def write(self, path: str):
        """Write every span as a tab-separated line: name, parent, start, end
        (nanoseconds on the perf_counter clock)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")
