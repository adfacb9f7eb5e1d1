"""Span tracing for the benchmark's traced runs.

Spans are recorded around calls into the public functions of each
`nilpairs` module.  The wrappers are installed from the benchmark's own
files by rebinding every name under which a traced function is looked up
(module globals that hold the same function object, and `ExactMatrix`
methods on the class), so nothing under `src/` changes.  Spans are kept in
memory; `write` stores them when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Calls and self times are accumulated per span key; keys of matrix
spans end in the field representation (`gf2`, `gfp`, `qq`).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MATRIX_METHODS = (
    "mul",
    "power",
    "is_nilpotent",
    "rank",
    "rank_sequence",
    "nilpotent_shape",
    "inverse",
    "kernel_basis",
)
MATRIX_FUNCTIONS = ("jordanize_nilpotent", "batched_rank_sequences")
MATRIX_FNS = MATRIX_METHODS + MATRIX_FUNCTIONS
REPS = ("gf2", "gfp", "qq")
STAGES = (
    "jordanize-a22",
    "clear-a12",
    "clear-a21",
    "eliminate-x",
    "reorder-runs",
    "echelon-y",
    "validate",
)
# (module, function) pairs traced under the key "<module>.<function>"
FUNCTIONS = (
    ("reduction", "reduce"),
    ("jordan", "chain_profile"),
    ("jordan", "shape_of_reduced"),
    ("census", "exhaustive_shape_census"),
    ("census", "sampled_shape_census"),
    ("census", "verify_shapes"),
    ("structure", "matches_annihilating_pattern"),
    ("structure", "sample_nilpotent_candidate"),
    ("characterize", "compatible"),
    ("characterize", "enumerate_shapes"),
    ("characterize", "witness"),
    ("characterize", "component_pairs"),
    ("characterize", "enumerate_vnab"),
    ("partitions", "enumerate_partitions"),
    ("cli", "main"),
    ("rng", "values_mod"),
    ("rng", "values_mod_np"),
    ("fields", "parse_field"),
)
GENERATORS = (("structure", "enumerate_candidates"),)
# span keys whose truthy results are counted, per parent span key
TRUTH_KEYS = {"characterize.compatible"} | {f"matrix.is_nilpotent.{r}" for r in REPS}

_MAX_SPANS_WRITTEN = 100_000


def rep_of(field) -> str:
    """Representation tag of a FieldSpec: bit-packed GF(2), int64 GF(p), or Fraction."""
    if not field.is_finite:
        return "qq"
    return "gf2" if field.order == 2 else "gfp"


def _rep_of_arg(arg) -> str:
    """Representation of a matrix argument, or of the first of a list of matrices."""
    if isinstance(arg, (list, tuple)):
        return rep_of(arg[0].field) if arg else "gfp"
    return rep_of(arg.field)


class Tracer:
    """In-memory span recorder; records only while `enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.stage_ns: dict[str, int] = defaultdict(int)
        self.truth: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.spans: list = []  # (key, parent index, start ns, end ns)
        self._stack: list[list] = []  # [key, start ns, child ns, span index]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, key: str) -> list:
        frame = [key, 0, 0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list, count: bool = True) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        key, start, child, idx = frame
        dur = end - start
        if count:
            self.calls[key] += 1
        self.self_ns[key] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans[idx] = (key, parent[3] if parent is not None else -1, start, end)

    def _parent_key(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    @contextmanager
    def active(self, on: bool = True):
        """Record spans inside the block (or, with on=False, suspend recording)."""
        prev = self.enabled
        self.enabled = on
        try:
            yield
        finally:
            self.enabled = prev

    def span_ms(self, key: str) -> float:
        return self.self_ns.get(key, 0) / 1e6

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, key_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            key = key_of(args)
            parent = tracer._parent_key()
            frame = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if key in TRUTH_KEYS:
                t = tracer.truth[(key, parent)]
                t[0] += 1
                t[1] += bool(result)
            return result

        return traced

    def _wrap_reduce(self, fn):
        """Span around reduce, with stage times taken from its stage hook."""
        tracer = self
        has_hook = "_stage_hook" in inspect.signature(fn).parameters
        plain = self._wrap(fn, lambda args: "reduction.reduce")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or not has_hook or "_stage_hook" in kwargs:
                return plain(*args, **kwargs)
            mark = [time.perf_counter_ns()]

            def hook(name, _matrix):
                now = time.perf_counter_ns()
                tracer.stage_ns[name] += now - mark[0]
                mark[0] = now

            result = plain(*args, _stage_hook=hook, **kwargs)
            tracer.stage_ns["validate"] += time.perf_counter_ns() - mark[0]
            return result

        return traced

    def _wrap_generator(self, fn, key: str):
        """Count invocations; time is the time spent inside each next()."""
        tracer = self

        def timed(gen):
            while True:
                frame = tracer._enter(key)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._exit(frame, count=False)
                    return
                except BaseException:
                    tracer._exit(frame, count=False)
                    raise
                tracer._exit(frame, count=False)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            return timed(fn(*args, **kwargs))

        return traced

    # -- installation ----------------------------------------------------------------

    def _rebind(self, orig, wrapped) -> None:
        """Replace `orig` under every nilpairs module global that holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "nilpairs" or name.startswith("nilpairs.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced function that exists; a missing one reports zeros."""
        import nilpairs.matrix as matrix

        cls = matrix.ExactMatrix
        for name in MATRIX_METHODS:
            orig = cls.__dict__.get(name)
            if orig is not None:
                self._patches.append((cls, name, orig))
                setattr(cls, name, self._wrap(orig, lambda args, n=name: f"matrix.{n}.{rep_of(args[0].field)}"))
        for name in MATRIX_FUNCTIONS:
            orig = getattr(matrix, name, None)
            if orig is not None:
                self._rebind(orig, self._wrap(orig, lambda args, n=name: f"matrix.{n}.{_rep_of_arg(args[0])}"))
        for mod_name, fn_name in FUNCTIONS + GENERATORS:
            orig = getattr(sys.modules[f"nilpairs.{mod_name}"], fn_name, None)
            if orig is None:
                continue
            key = f"{mod_name}.{fn_name}"
            if key == "reduction.reduce":
                wrapped = self._wrap_reduce(orig)
            elif (mod_name, fn_name) in GENERATORS:
                wrapped = self._wrap_generator(orig, key)
            else:
                wrapped = self._wrap(orig, lambda args, k=key: k)
            self._rebind(orig, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """Store the spans (first 100k) with `meta` as one JSON document."""
        spans = [s for s in self.spans[:_MAX_SPANS_WRITTEN] if s is not None]
        t0 = spans[0][2] if spans else 0
        doc = dict(meta)
        doc["spans_recorded"] = len(self.spans)
        doc["span_fields"] = ["key", "parent", "start_ns", "duration_ns"]
        doc["spans"] = [[k, p, s - t0, e - s] for k, p, s, e in spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
