"""Span recorder for traced benchmark runs.

install() wraps the public functions of each theta_factor layer, plus a few
methods, in a recorder that keeps one span per call in memory: the function
name, start and end (perf_counter_ns), the index of the enclosing span and
whether the call ended by an exception.  Every module that imported a
wrapped function by name gets the wrapper too, so calls made through
`cli.build_tree` or `factorization.check_star` are seen.  The library
itself is not modified on disk.

Only the spans of one child process are recorded; they share the run id
written at the top of the spans file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "factorization",
    "parabolic",
    "symmetric_functions",
    "partitions",
    "branching",
    "codimension",
)

# Methods wrapped in addition to each layer's public functions.
METHODS = {
    "factorization": ("DecompositionTree.to_json_dict",),
    "parabolic": (
        "ModuliSpec.__post_init__",
        "MarkedPoint.__post_init__",
        "ModuliSpec.from_json_dict",
    ),
}

# Functions whose distinct argument sets are counted, to show how much of
# their work repeats.
KEYED = {"factorization.mu_to_boundary"}


class Recorder:
    """In-memory spans: [name index, start ns, end ns, parent span, error]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.keys: dict[str, set] = {}

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        keys = self.keys.setdefault(name, set()) if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(repr((args, sorted(kwargs.items()))))
            span = [index, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "distinct_args": {name: len(seen) for name, seen in self.keys.items()},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        value = getattr(module, name)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


def install(recorder: Recorder) -> None:
    """Wrap every layer's public functions and the listed methods."""
    modules = [importlib.import_module(f"theta_factor.{layer}") for layer in LAYERS]
    package = [
        module
        for name, module in sys.modules.items()
        if name == "theta_factor" or name.startswith("theta_factor.")
    ]
    for layer, module in zip(LAYERS, modules):
        for name, fn in _public_functions(module):
            wrapped = recorder.wrap(f"{layer}.{name}", fn)
            for other in package:
                if vars(other).get(name) is fn:
                    setattr(other, name, wrapped)
        for dotted in METHODS.get(layer, ()):
            cls_name, attr = dotted.split(".")
            cls = getattr(module, cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(recorder.wrap(f"{layer}.{dotted}", raw.__func__)))
            else:
                setattr(cls, attr, recorder.wrap(f"{layer}.{dotted}", raw))
