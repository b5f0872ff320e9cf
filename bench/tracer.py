"""Span tracer for the traced benchmark run.

For the traced run only, each layer boundary is replaced at the place its
caller looks it up, and restored afterwards: class attributes on the class,
module functions in every ``jspectral`` module that binds the same object by
name (or only in the owning module where a boundary says so). Spans carry a
parent link; a span's self time is its duration minus the time its child
spans cover. A boundary that no longer exists is recorded as missing and does
not stop the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

EVERYWHERE, OWNER = "everywhere", "owner"

# (label, module, attribute, where replaced). A dotted attribute is a class
# attribute, replaced on the class.
BOUNDARIES = (
    ("oper.apply", "jspectral.oper", "LinOp.apply_coeffs", EVERYWHERE),
    ("oper.adjoint", "jspectral.oper", "LinOp.apply_adjoint_coeffs", EVERYWHERE),
    ("oper.build", "jspectral.oper", "hardy", EVERYWHERE),
    ("oper.build", "jspectral.oper", "compose", EVERYWHERE),
    ("oper.build", "jspectral.oper", "adjoint", EVERYWHERE),
    ("space.lp_norm", "jspectral.space", "_lp_norm", EVERYWHERE),
    ("space.jmap", "jspectral.space", "_jmap", EVERYWHERE),
    ("space.jmap", "jspectral.space", "_jtilde", EVERYWHERE),
    ("space.min_norm_coeffs", "jspectral.space", "min_norm_coeffs", EVERYWHERE),
    ("space.functional_distance", "jspectral.space", "functional_distance", EVERYWHERE),
    ("jspec.spectrum", "jspectral.jspec", "compute_jspectrum", EVERYWHERE),
    ("jspec.spectrum", "jspectral.jspec", "dual_jspectrum", EVERYWHERE),
    ("jspec.extremal_pair", "jspectral.jspec", "extremal_pair", EVERYWHERE),
    ("jspec.constraint_projector", "jspectral.jspec", "_constraint_projector", EVERYWHERE),
    ("series.build", "jspectral.series", "hilbertian_series", EVERYWHERE),
    ("series.dense_factor", "jspectral.series", "svd", OWNER),
    ("series.dense_factor", "jspectral.series", "nullspace_basis", OWNER),
    ("series.reconstruction", "jspectral.series", "SeriesRep.reconstruction_errors",
     EVERYWHERE),
    ("cli.emit", "jspectral.cli", "_emit", EVERYWHERE),
)

# labels whose calls apply a dense operator; bytes are 8 * rows * cols, computed
_APPLIES = ("oper.apply", "oper.adjoint")


class Tracer:
    """Records spans in memory; install() patches, uninstall() restores."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.labels = []          # label of each span, by span id
        self.spans = []           # (id, parent id, t0, t1, self seconds, ok)
        self.bytes_computed = 0
        self.missing = []         # "module:attribute" of absent boundaries
        self._stack = []          # [span id, child seconds] of open spans
        self._patches = []        # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, label, fn):
        tracer = self
        weigh = label in _APPLIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.labels)
            tracer.labels.append(label)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((sid, parent, t0, t1, t1 - t0 - frame[1], ok))
                if weigh:
                    op = args[0]
                    tracer.bytes_computed += 8 * op.cod.dim * op.dom.dim

        return traced

    def call(self, label, fn, *args, **kwargs):
        """Run fn inside one span of label."""
        return self._wrap(label, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def install(self):
        # Import every module first: a module imported after the patching
        # (jspectral does not import its cli) would bind the wrappers by name,
        # escape the patch list, and keep them after uninstall().
        modules = {}
        for modname in sorted({b[1] for b in self.boundaries} | {"jspectral.cli"}):
            try:
                modules[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        for label, modname, attr, where in self.boundaries:
            module = modules.get(modname)
            if module is None:
                self.missing.append(f"{modname}:{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}:{attr}")
                continue
            traced = self._wrap(label, original)
            owners = [owner]
            if where == EVERYWHERE and not owner_name:
                owners = [m for n, m in list(sys.modules.items())
                          if (n == "jspectral" or n.startswith("jspectral."))
                          and getattr(m, name, None) is original]
            for o in owners:
                self._patches.append((o, name, original))
                setattr(o, name, traced)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def missing_labels(self):
        return sorted({label for label, modname, attr, _ in self.boundaries
                       if f"{modname}:{attr}" in self.missing})

    def totals(self):
        """label -> {"calls", "self_s", "failed"}."""
        out = {}
        for sid, _, _, _, self_s, ok in self.spans:
            t = out.setdefault(self.labels[sid], {"calls": 0, "self_s": 0.0, "failed": 0})
            t["calls"] += 1
            t["self_s"] += self_s
            t["failed"] += not ok
        return out

    def seconds(self, label):
        """Summed duration of the spans of label."""
        return sum(t1 - t0 for sid, _, t0, t1, _, _ in self.spans
                   if self.labels[sid] == label)

    def write(self, path, header):
        """Spans as gzipped JSON lines: a header, then [id, parent, label, t0, t1]."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, t0, t1, _, _ in sorted(self.spans):
                fh.write(json.dumps([sid, parent, self.labels[sid], t0, t1]) + "\n")

