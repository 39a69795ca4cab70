"""Per-layer tracing from outside the package.

`Tracer.install` replaces each function named in `LAYERS` with a wrapper,
in every `holoplane` module that binds it, so calls made through
`from .x import f` bindings and through lazy imports are all seen. Each
call records a span (job, layer, start, end, parent span) in memory; the
spans are written out once, by `Tracer.dump`, after the run.

A name in `LAYERS` that the package no longer defines makes `install`
raise, so a rename cannot silently drop a layer from the trace.
"""

import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


def _npoints(x):
    x = np.asarray(x)
    return 1 if x.ndim == 1 else x.shape[0]


def _file_bytes(args, result):
    return os.path.getsize(args["path"])


@dataclass(frozen=True)
class Layer:
    module: str  # holoplane submodule
    attr: str  # function name in that module
    name: str = None  # metric prefix, `module.attr` by default
    count: dict = field(default_factory=dict)  # suffix -> f(bound args, result)
    calls: bool = False  # count every call as `.calls`
    errors: str = None  # holoplane.errors class counted as `.errors`

    @property
    def label(self):
        return self.name or f"{self.module}.{self.attr}"

    def metric_names(self):
        names = [f"{self.label}.{k}" for k in self.count]
        if self.calls:
            names.append(f"{self.label}.calls")
        if self.errors:
            names.append(f"{self.label}.errors")
        return names


LAYERS = (
    Layer("cli", "run_simulate"),
    Layer("cli", "run_reconstruct"),
    Layer("cli", "run_rates"),
    Layer("config", "parse_config"),
    Layer("fields", "eval_radiation", count={"points": lambda a, r: _npoints(a["x"])}),
    Layer("bessel", "hankel0_first_kind",
          count={"args": lambda a, r: int(np.size(a["z"]))}),
    Layer("hologram", "intensity", count={"points": lambda a, r: _npoints(a["x"])}),
    Layer("hologram", "sample_hologram"),
    Layer("hologram", "add_noise"),
    Layer("hologram", "intensity_at", calls=True, errors="OutOfPatchError"),
    Layer("recon", "reconstruct_grid", count={
        "nodes": lambda a, r: r.f11.size,
        "valid_nodes": lambda a, r: int(np.isfinite(r.f11).sum()),
    }),
    Layer("cli", "probe_errors", calls=True),
    Layer("cli", "compute_metrics"),
    Layer("metrics", "discrepancy"),
    Layer("recon", "recon_to_csv", count={"bytes": _file_bytes}),
    Layer("hologram", "hologram_to_csv", count={"bytes": _file_bytes}),
    Layer("hologram", "hologram_to_pgm"),
    Layer("cli", "_write_profile", name="cli.write_profile"),
)


class LayerMissingError(RuntimeError):
    """A traced function is not defined where `LAYERS` says it is."""


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.job = None  # set by the caller around each traced job
        self.spans = []  # [job, label, start, end, parent index or None]
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> metric -> n
        self._stack = []
        self._patched = []  # (module, attr, original)

    def install(self):
        wrappers = []
        for layer in self.layers:
            module = importlib.import_module(f"holoplane.{layer.module}")
            original = getattr(module, layer.attr, None)
            if not callable(original):
                raise LayerMissingError(f"holoplane.{layer.module}.{layer.attr}")
            wrappers.append((original, self._wrap(layer, original)))
        pkg_modules = [m for k, m in list(sys.modules.items())
                       if k == "holoplane" or k.startswith("holoplane.")]
        for original, wrapper in wrappers:
            for module in pkg_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        label = layer.label
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = f"{label}.calls" if layer.calls else None
        error_type = None
        if layer.errors:
            error_type = getattr(sys.modules["holoplane.errors"], layer.errors)
            errors_key = f"{label}.errors"
        signature = inspect.signature(fn) if layer.count else None
        count_keys = [(f"{label}.{k}", f) for k, f in layer.count.items()]

        def wrapper(*args, **kwargs):
            job_counts = counts[self.job]
            if calls_key:
                job_counts[calls_key] += 1
            span = [self.job, label, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error_type is not None and isinstance(exc, error_type):
                    job_counts[errors_key] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, f in count_keys:
                    job_counts[key] += f(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_job(self, jobs):
        """{job: {metric: value}} with every layer's self time (`.s`) and
        counts, zero where a job did not call the layer."""
        self_time = defaultdict(lambda: defaultdict(float))
        for job, label, start, end, parent in self.spans:
            dur = end - start
            self_time[job][label] += dur
            if parent is not None:
                self_time[job][self.spans[parent][1]] -= dur
        out = {}
        for job in jobs:
            values = {}
            for layer in self.layers:
                values[f"{layer.label}.s"] = self_time[job][layer.label]
                for name in layer.metric_names():
                    values[name] = self.counts[job][name]
            out[job] = values
        return out

    def dump(self, path):
        """Write all spans as JSON: one [job, layer, start, end, parent] row each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["job", "layer", "start", "end", "parent"],
                       "spans": self.spans}, fh)
