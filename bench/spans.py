"""Per-layer spans and call counts, recorded from outside the program.

Nothing in fairflow is edited: each layer function is replaced, for the
duration of a `with` block, by a wrapper that records a span (name,
start, end, parent span).  `decmin`, `lupmin`, `cli`, `existence` and
`orient` import these functions by name, so every attribute of every
loaded `fairflow.*` module that *is* the original function object gets
the wrapper, not just the defining module's.  A function that a later
version of the program no longer has is reported as absent.

Spans are kept in memory and written out by `SpanRecorder.dump`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

ROOT = "cli.main"

LAYERS = (
    "cli.parse_instance",
    "existence.build_jump_structure",
    "existence.has_blocking_dicircuit",
    "existence.finitize_bounds",
    "baseflow.check_feasible",
    "baseflow.find_violator",
    "baseflow.find_feasible",
    "baseflow.membership",
    "baseflow.min_cost_flow",
    "decmin.solve_decmin",
    "decmin.compute_beta",
    "decmin.newton_dinkelbach",
    "decmin.predecmin_phase",
    "decmin.solve_min_cost_decmin",
    "lupmin.lupmin_solve",
    "setfn.brute_extremize",
    "setfn.BaseOracle.face_contract",
    "setfn.envelope_setfn",
    "orient.encode",
    "orient.decode",
    "orient.decmin_orientation",
)

# Helpers called 1e5-1e6 times per run: only counted, in a pass of their
# own, because a span around each call would distort the traced self times.
COUNTED = {
    "core.cut_in_sum.calls": "core.cut_in_sum",
    "core.cut_out_sum.calls": "core.cut_out_sum",
    "setfn.SetFn.evals": "setfn.SetFn.__call__",
}

# What to keep from a span's return value, for the derived metrics.
NOTES = {
    "baseflow.find_violator": lambda hit: hit is None,
    "decmin.newton_dinkelbach": lambda mu_log: len(mu_log[1]) - 1,
}


def _resolve(name: str):
    """(owner object, attribute, original) for a dotted layer name, or None."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module("fairflow." + module_name)
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    original = vars(owner).get(path[-1]) if isinstance(owner, type) \
        else getattr(owner, path[-1], None)
    if not callable(original):
        return None
    return owner, path[-1], original


@contextmanager
def patched(make_wrapper, names):
    """Replace each named function everywhere it is bound; restore on exit.

    Yields the names that could not be found.
    """
    undo = []
    absent = []
    try:
        for name in names:
            found = _resolve(name)
            if found is None:
                absent.append(name)
                continue
            owner, attr, original = found
            wrapper = make_wrapper(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "fairflow" and not mod_name.startswith("fairflow."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield absent
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


class SpanRecorder:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.notes = {}
        self._stack = []

    def wrap(self, name, fn):
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack, clock, note = self._stack, time.perf_counter, NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(None)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if note is not None:
                self.notes[span] = note(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def recording(self):
        with patched(self.wrap, (ROOT,) + LAYERS) as absent:
            yield absent

    def metrics(self) -> dict:
        """Per-layer calls and self time, plus the derived counts and ratios."""
        child_time = [0.0] * len(self.names)
        for span, up in enumerate(self.parent):
            if up >= 0:
                child_time[up] += self.end[span] - self.start[span]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        root_self = root_total = 0.0
        augmentations = probes = accepted = iterations = 0
        for span, name in enumerate(self.names):
            total = self.end[span] - self.start[span]
            if name == ROOT:
                root_self += total - child_time[span]
                root_total += total
                continue
            calls[name] += 1
            self_s[name] += total - child_time[span]
            up = self.parent[span]
            up_name = self.names[up] if up >= 0 else None
            if name == "baseflow.membership" and up_name == "baseflow.min_cost_flow":
                augmentations += 1
            elif name == "baseflow.find_violator" and up_name == "decmin.compute_beta":
                probes += 1
                accepted += self.notes.get(span, False)  # none if it raised
            elif name == "decmin.newton_dinkelbach":
                iterations += self.notes.get(span, 0)
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["baseflow.min_cost_flow.augmentations"] = augmentations
        out["decmin.staircase.probes"] = probes
        out["decmin.staircase.accept_ratio"] = accepted / probes if probes else 0.0
        out["decmin.newton_dinkelbach.iterations"] = iterations
        out["trace.unattributed_frac"] = root_self / root_total if root_total else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "start": self.start, "end": self.end,
                       "parent": self.parent}, fh)


class CallCounter:
    """Counts calls of the high-frequency helpers in COUNTED."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTED.values(), 0)

    def wrap(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def counting(self):
        with patched(self.wrap, tuple(COUNTED.values())) as absent:
            yield absent

    def metrics(self) -> dict:
        return {metric: self.counts[name] for metric, name in COUNTED.items()}
