"""Span tracing of biaslab's public functions, applied from outside the package.

``Tracer.install`` replaces every module-level binding of each traced
function inside the loaded ``biaslab`` modules with a wrapper that records
one span per call: name, start, end, parent span and whether the call
raised.  ``geometry`` imports ``solve_lp`` by name, for example, so the
binding in ``geometry`` is wrapped as well as the one in ``design``.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Spans are kept in flat arrays and reduced only when ``summary`` is called,
so the per-call cost is a few appends.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs traced by name; each is reported as
# "<module>.<function>".
FUNCTIONS = (
    ("core", "validate_instance"),
    ("core", "bayes_posterior"),
    ("core", "best_response"),
    ("design", "build_lp"),
    ("design", "solve_lp"),
    ("design", "design_scheme"),
    ("design", "verify_design"),
    ("geometry", "classify"),
    ("geometry", "testable_range"),
    ("agent", "sample_episode"),
    ("agent", "agent_act"),
    ("detector", "threshold_test"),
    ("detector", "threshold_test_on_scheme"),
    ("detector", "empirical_sample_complexity"),
    ("detector", "estimate_bias"),
    ("cli", "run_cli"),
)

# Methods traced on every listed class, all reported under one name.
METHODS = (("bias_models", "evaluate", ("LinearBias", "WarpedLinear")),)

NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(f"{m}.{f}" for m, f, _ in METHODS)

# Root span that groups the library calls of one benchmark op.
OP_SPAN = "op"

PACKAGE = "biaslab"


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.names = list(NAMES) + [OP_SPAN]
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")
        self.stack = []
        self.absent = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, fn, name_id: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.raised.append(0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.stack.pop()

        return traced

    def _modules(self):
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        self.absent = []
        modules = self._modules()
        by_name = {mod.__name__: mod for mod in modules}
        for name_id, (mod_name, fn_name) in enumerate(FUNCTIONS):
            home = by_name.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.absent.append(NAMES[name_id])
                continue
            wrapper = self._wrap(original, name_id)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for offset, (mod_name, meth, classes) in enumerate(METHODS):
            name_id = len(FUNCTIONS) + offset
            home = by_name.get(f"{PACKAGE}.{mod_name}")
            found = False
            for cls_name in classes:
                cls = getattr(home, cls_name, None) if home is not None else None
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue
                found = True
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name_id))
            if not found:
                self.absent.append(NAMES[name_id])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def op_span(self, fn, *args):
        """Run ``fn(*args)`` under a root span; spans left open by an
        interrupted call are closed at the op's end."""
        wrapped = self._wrap(fn, len(self.names) - 1)
        try:
            return wrapped(*args)
        finally:
            now = perf_counter()
            while self.stack:
                self.ends[self.stack.pop()] = now

    def summary(self) -> dict:
        """Per traced name: calls, self seconds and calls that raised.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        n_names = len(self.names)
        ids = np.frombuffer(self.name_ids, dtype=np.int32) if len(self.name_ids) else np.zeros(0, np.int32)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child[: dur.size]
        calls = np.bincount(ids, minlength=n_names)
        self_s = np.bincount(ids, weights=self_time, minlength=n_names)
        errors = np.bincount(ids, weights=np.asarray(self.raised, dtype=float), minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "errors": int(errors[i])}
            for i, name in enumerate(self.names)
        }
