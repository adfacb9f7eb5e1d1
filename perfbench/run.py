#!/usr/bin/env python3
"""Benchmark of the nilpairs package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 28 --trace 0

The package is imported from `src/` of the same checkout.  The workload
(see workloads.py) runs as a closed loop with one client, in one process
and one thread: one untimed warm-up pass over its fixed mix, then whole
passes for `--seconds` seconds.  Every operation's output is checked; an
operation that raises or fails its check counts as failed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run spends half its time untraced and
then replays the same operations with spans around the package's public
functions, and the metrics are the per-layer ones.  The line before holds
the run's details: machine, seed, sample counts and the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 4  # fresh-interpreter set-ups besides the run's own; setup_s is the median

sys.path.insert(0, HERE)

import tracing  # noqa: E402  (no package import; safe before set-up is timed)

WORKLOADS = ("census", "verify", "reduce", "decide")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms.mean": "ms",
    "op_ms.p90": "ms",
}


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units; calls and self times are per pass."""
    units: dict[str, str] = {}

    def fn(key: str) -> None:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_ms"] = "ms"

    for name in tracing.MATRIX_FNS:
        for rep in tracing.REPS:
            units[f"matrix.{name}.calls.{rep}"] = "count"
            units[f"matrix.{name}.self_ms.{rep}"] = "ms"
    fn("reduction.reduce")
    for stage in tracing.STAGES:
        units[f"reduction.stage_ms.{stage}"] = "ms"
    for label in ("gf2_ones4", "gf2_n7", "gf3_321"):
        units[f"census.exhaustive_s.{label}"] = "s"
    units["census.sampled_s.gf3_n7"] = "s"
    units["census.nilpotent_frac"] = "ratio"
    units["census.verify_shapes.self_ms"] = "ms"
    units["census.verify.nilpotent_frac"] = "ratio"
    for mod, name in tracing.FUNCTIONS + tracing.GENERATORS:
        if mod not in ("reduction", "census"):
            fn(f"{mod}.{name}")
    units["characterize.compatible.yes_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def clear_caches() -> None:
    """Empty every functools cache of the package, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "nilpairs" or name.startswith("nilpairs.")):
            for val in list(vars(mod).values()):
                clear = getattr(val, "cache_clear", None)
                if callable(clear):
                    clear()


def setup(name: str, seed: int, tiny: bool, tracer=None):
    """Import the package and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nilpairs
    import workloads

    if not os.path.abspath(nilpairs.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported nilpairs from {nilpairs.__file__}, not from {SRC}")
    wl = workloads.make(name, seed, tiny, tracer)
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Measured:
    """Op times of one measuring phase, in order and by class, and its failures."""

    times: array = field(default_factory=lambda: array("d"))
    by_class: dict = field(default_factory=dict)
    failed: int = 0
    failures: list = field(default_factory=list)
    results: dict = field(default_factory=dict)  # last good result of each class
    passes: int = 0


def measure(wl, seconds: float, tracer=None) -> Measured:
    """Run whole passes until `seconds` have gone by."""
    m = Measured()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if i % wl.pass_len == 0:
            if i and time.perf_counter() >= deadline:
                break
            clear_caches()
        op = wl.op(i)
        res, err = None, None
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            err = exc
        secs = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                if not op.check(res):
                    err = "wrong output"
            except Exception as exc:
                err = exc
        if err is None:
            m.results[op.cls] = res
        else:
            m.failed += 1
            if len(m.failures) < 5:
                m.failures.append(f"op {i} ({op.cls}): {err!r}")
        m.times.append(secs)
        m.by_class.setdefault(op.cls, array("d")).append(secs)
        i += 1
    m.passes = i // wl.pass_len
    return m


def layer_metrics(wl, tracer, m: Measured, overhead: float) -> dict[str, float]:
    units = layer_units()
    values = {name: 0.0 for name in units}
    for key, calls in tracer.calls.items():
        parts = key.split(".")
        if parts[0] == "matrix":
            calls_name = f"matrix.{parts[1]}.calls.{parts[2]}"
            ms_name = f"matrix.{parts[1]}.self_ms.{parts[2]}"
        else:
            calls_name, ms_name = f"{key}.calls", f"{key}.self_ms"
        if calls_name in values:
            values[calls_name] = calls / m.passes
        if ms_name in values:
            values[ms_name] = tracer.span_ms(key) / m.passes
    for stage, ns in tracer.stage_ns.items():
        if f"reduction.stage_ms.{stage}" in values:
            values[f"reduction.stage_ms.{stage}"] = ns / 1e6 / m.passes
    values.update(wl.layer_metrics(m.by_class, m.results))
    values["trace.overhead_frac"] = overhead
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"per-layer values without a declared metric: {sorted(unknown)}")
    return values


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, probes: int = SETUP_PROBES,
        out_dir: str | None = OUT_DIR, plant=None):
    """One benchmark run; returns (details, result line).  `plant(workload)` may alter expectations."""
    tracer = tracing.Tracer() if trace else None
    wl, own_setup = setup(name, seed, tiny, tracer)
    probes = 0 if trace else probes
    # half of the probes come before the measured phase and half after it, so
    # that the median spans the run rather than one moment of it
    setup_samples = [own_setup] + [probe_setup(name, seed) for _ in range(probes // 2)]
    if plant is not None:
        plant(wl)
    details = {
        "benchmark": "nilpairs",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
    }
    warm = measure(wl, 0)  # one untimed pass: imports inside the package, first-call paths
    if not trace:
        m = measure(wl, seconds)
        setup_samples += [probe_setup(name, seed) for _ in range(probes - probes // 2)]
        e2e, samples = wl.metrics(m.by_class)
        e2e["setup_s"] = statistics.median(setup_samples)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        attempted, failed, failures = len(m.times), m.failed, m.failures
    else:
        plain = measure(wl, seconds / 2)
        tracer.install()
        try:
            m = measure(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        common = min(len(plain.times), len(m.times))
        overhead = statistics.median(m.times[i] / plain.times[i] for i in range(common)) - 1
        values = layer_metrics(wl, tracer, m, overhead)
        metrics = {k: {"value": values[k], "unit": u} for k, u in layer_units().items()}
        _, samples = wl.metrics(m.by_class)
        attempted = len(plain.times) + len(m.times)
        failed, failures = plain.failed + m.failed, plain.failures + m.failures
    attempted += len(warm.times)
    failed += warm.failed
    failures = warm.failures + failures
    details.update(
        setup_s_samples=setup_samples,
        warmup_passes=warm.passes,
        passes=m.passes,
        samples=samples,
        failed_frac=failed / attempted,
        failures=failures,
    )
    if trace and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"), details)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nilpairs", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, secs = setup(args.workload, args.seed, args.tiny)
        print(json.dumps({"setup_s": secs}))
        return 0
    details, line = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                        probes=0 if args.tiny else SETUP_PROBES)
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
