"""Span recording for the traced benchmark run.

Spans are recorded from outside the library: at run time the tracer
replaces the public functions of each enfp module (and every alias other
modules imported under the same name) with timing wrappers, and restores
the originals when it is uninstalled.  Nothing under ``src/`` changes.

Spans live in memory as dicts (name, layer, start, end, parent, run) and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

# The in-process layers.  The tenth, ``cli``, runs in child processes and
# is timed around each subprocess call instead of being wrapped.
LAYERS = (
    "records_io",
    "trials",
    "special",
    "deconv",
    "hcurve",
    "freq_bounds",
    "bayes_bounds",
    "ledger",
    "simulate",
)

# special is wrapped only under the names these modules import from it.
SPECIAL_IMPORTERS = ("deconv", "hcurve", "simulate")

# Public methods worth a span; module-level public functions are found
# automatically.
METHODS = {
    "deconv": {"ObservationSet": ("resample",)},
    "ledger": {
        "Ledger": (
            "create",
            "open",
            "propose",
            "record_outcome",
            "record_adjustment",
            "status",
            "entries",
            "running_sums",
        )
    },
}


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return 1
    n = 1
    for dim in shape:
        n *= int(dim)
    return n


def _note_h_values(rec, args, out):
    model = args[0]
    rec["n"] = _size(out)
    rec["grid"] = len(model.theta_grid)
    rec["sparse"] = bool((model.masses == 0.0).any())


def _note_size(rec, args, out):
    rec["n"] = _size(out)


def _note_shape(rec, args, out):
    rec["shape"] = list(out.shape)


def _note_fit(rec, args, out):
    rec["iterations"] = int(out.diagnostics.get("iterations", 0))


def _note_bootstrap(rec, args, out):
    rec["replicates"] = int(out.replicates)
    rec["converged"] = int(out.n_converged)


def _note_validate(rec, args, out):
    conc = out.concordance
    rec["bins_checked"] = int(
        conc.third.n_bins_checked + conc.fourth.n_bins_checked
    )


def _note_propose(rec, args, out):
    rec["accepted"] = bool(out.accepted)


def _note_open(rec, args, out):
    rec["entries"] = len(out.entries())


ANNOTATE = {
    "hcurve.h_values": _note_h_values,
    "deconv.likelihood_matrix": _note_shape,
    "deconv.fit_g": _note_fit,
    "deconv.bootstrap": _note_bootstrap,
    "simulate.validate_bounds": _note_validate,
    "ledger.Ledger.propose": _note_propose,
    "ledger.Ledger.open": _note_open,
}


class Tracer:
    """In-memory span recorder with installable timing wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {
            "name": name,
            "layer": layer,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        rec.update(attrs)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        annotate = ANNOTATE.get(name)
        if annotate is None and layer == "special":
            annotate = _note_size
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer) as rec:
                out = fn(*args, **kwargs)
            if annotate is not None:
                annotate(rec, args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions and their aliases, plus
        the listed methods and ``os.fsync``."""
        modules = {
            layer: importlib.import_module(f"enfp.{layer}") for layer in LAYERS
        }
        namespaces = [importlib.import_module("enfp"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}", layer)
                if layer == "special":
                    targets = [modules[m] for m in SPECIAL_IMPORTERS]
                else:
                    targets = namespaces
                for ns in targets:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, alias, wrapper)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in names:
                    raw = inspect.getattr_static(cls, attr)
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        inner = self._wrap(raw.__func__, name, layer)
                        self._patch(cls, attr, classmethod(inner))
                    else:
                        self._patch(cls, attr, self._wrap(raw, name, layer))
        self._patch(os, "fsync", self._wrap(os.fsync, "ledger.fsync", "ledger"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for index, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **rec}) + "\n")


def self_times(spans: list) -> list:
    """Per-span self time in ns: duration minus the direct children's."""
    own = [rec["end"] - rec["start"] for rec in spans]
    for rec in spans:
        if rec["parent"] is not None:
            own[rec["parent"]] -= rec["end"] - rec["start"]
    return own
