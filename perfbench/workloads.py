"""The benchmark's workloads.

Every workload is a deterministic stream of operations made from the
benchmark seed, run as a closed loop with one client.  Operations come in
passes over a fixed mix; the runner clears the package's functools caches
at the start of each pass, so every pass costs what it costs in a fresh
process.  An operation's `run` is timed; preparing its input and checking
its output are not.

All calls into the package go through module attributes at call time, so
the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics

import numpy as np

import nilpairs.census as census
import nilpairs.characterize as characterize
import nilpairs.cli as cli
import nilpairs.jordan as jordan
import nilpairs.matrix as matrix
import nilpairs.partitions as partitions
import nilpairs.reduction as reduction
import nilpairs.structure as structure
from nilpairs.fields import GF, GF2, GF3, QQ


class Op:
    """One timed operation: `run()` gives a result that `check(result)` judges."""

    __slots__ = ("cls", "run", "check")

    def __init__(self, cls: str, run, check):
        self.cls = cls
        self.run = run
        self.check = check


def _p50(xs) -> float:
    return float(np.median(xs))


def _p90(xs) -> float:
    return float(np.percentile(xs, 90))


class Workload:
    """Base class: `pass_len` operations per pass, `op(i)` builds operation i."""

    pass_len = 1

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def metrics(self, by_class) -> tuple[dict[str, float], dict]:
        """End-to-end metrics (work_per_s, op_ms.mean, op_ms.p90) and details with sample counts.

        `by_class` maps each op class to its op times in seconds.
        """
        raise NotImplementedError

    def layer_metrics(self, by_class, results) -> dict[str, float]:
        """Workload-specific per-layer metrics from one traced phase."""
        return {}


def _suite_metrics(by, work: dict[str, int]) -> tuple[dict[str, float], dict]:
    """Metrics over classes of like ops, each class weighted equally.

    work_per_s is the work done over the time taken; the latencies are
    geometric means over the classes of each class's mean and 90th
    percentile.  `work` is the work of one op.  The machine alternates
    between a slow and a fast state for seconds at a time, so op times are
    bimodal and a median flips between the modes from run to run, while a
    mean moves only with the share of time spent in each state; the median
    is reported in the details only.
    """
    out = {
        "work_per_s": sum(work[c] * len(ts) for c, ts in by.items()) / sum(sum(ts) for ts in by.values()),
        "op_ms.mean": statistics.geometric_mean([statistics.fmean(ts) * 1e3 for ts in by.values()]),
        "op_ms.p90": statistics.geometric_mean([_p90(ts) * 1e3 for ts in by.values()]),
    }
    details = {
        "op_ms.p50": statistics.geometric_mean([_p50(ts) * 1e3 for ts in by.values()]),
        "per_class": {c: len(ts) for c, ts in sorted(by.items())},
    }
    return out, details


# -- census ------------------------------------------------------------------------


class Census(Workload):
    """Vectorized shape censuses over GF(2) and GF(3)."""

    # label, mu, field, samples (None = exhaustive)
    FULL = (
        ("gf2_ones4", "1^4", GF2, None),
        ("gf2_n7", "3,2,1,1", GF2, None),
        ("gf3_321", "3,2,1", GF3, None),
        ("gf3_n7", "3,2,1,1", GF3, 30000),
    )
    TINY = (
        ("gf2_ones4", "2,1", GF2, None),
        ("gf2_n7", "2,1,1", GF2, None),
        ("gf3_321", "2,1", GF3, None),
        ("gf3_n7", "2,1,1", GF3, 300),
    )

    def __init__(self, seed, tiny=False, tracer=None):
        super().__init__(seed, tracer)
        self.instances = []
        for label, mu_text, field, samples in self.TINY if tiny else self.FULL:
            mu = partitions.parse_partition(mu_text)
            free = len(structure.free_coordinates(mu))
            ones = partitions.split_core(mu).ones
            p = field.order
            self.instances.append(
                {
                    "label": label,
                    "mu": mu,
                    "field": field,
                    "samples": samples,
                    "work": samples if samples else p**free,
                    # Fine-Herstein: p^(m^2-m) nilpotent A22 times p^(F-m^2) outer values
                    "nilpotent": p ** (free - ones),
                    "shapes": set(characterize.enumerate_shapes(mu)),
                }
            )
        self.pass_len = len(self.instances)

    def op(self, i):
        inst = self.instances[i % self.pass_len]
        mu, field, samples = inst["mu"], inst["field"], inst["samples"]
        if samples:
            seed = self.seed

            def run():
                return census.sampled_shape_census(mu, field, samples, seed)

            def check(res):
                counts, nilp = res
                return sum(counts.values()) == nilp and set(counts) <= inst["shapes"]
        else:

            def run():
                return census.exhaustive_shape_census(mu, field)

            def check(counts):
                return sum(counts.values()) == inst["nilpotent"] and set(counts) == inst["shapes"]

        return Op(inst["label"], run, check)

    def metrics(self, by_class):
        return _suite_metrics(by_class, {x["label"]: x["work"] for x in self.instances})

    def layer_metrics(self, by_class, results):
        out = {}
        nilp = work = 0
        for inst in self.instances:
            label = inst["label"]
            kind = "sampled_s" if inst["samples"] else "exhaustive_s"
            out[f"census.{kind}.{label}"] = _p50(by_class[label])
            res = results.get(label)
            if res is not None:
                nilp += res[1] if inst["samples"] else sum(res.values())
                work += inst["work"]
        out["census.nilpotent_frac"] = nilp / work if work else 0.0
        return out


# -- verify --------------------------------------------------------------------------


class Verify(Workload):
    """Exhaustive verify_shapes: per-candidate nilpotency filter and dual shape check."""

    FULL = (("gf2_211", "2,1,1", GF2), ("gf5_21", "2,1", GF(5)))
    TINY = (("gf2_211", "2,1", GF2), ("gf5_21", "2,1", GF3))

    def __init__(self, seed, tiny=False, tracer=None):
        super().__init__(seed, tracer)
        self.instances = [
            (label, partitions.parse_partition(mu), field) for label, mu, field in (self.TINY if tiny else self.FULL)
        ]
        self.work = {label: structure.candidate_count(mu, f) for label, mu, f in self.instances}
        self.pass_len = len(self.instances)

    def op(self, i):
        label, mu, field = self.instances[i % self.pass_len]
        return Op(label, lambda: census.verify_shapes(mu, field), lambda rep: rep.verdict == "equal")

    def metrics(self, by_class):
        return _suite_metrics(by_class, self.work)

    def layer_metrics(self, by_class, results):
        t = self.tracer.truth
        calls = sum(t[(f"matrix.is_nilpotent.{r}", "census.verify_shapes")][0] for r in ("gf2", "gfp", "qq"))
        nilp = sum(t[(f"matrix.is_nilpotent.{r}", "census.verify_shapes")][1] for r in ("gf2", "gfp", "qq"))
        return {
            "census.verify.nilpotent_frac": nilp / calls if calls else 0.0,
        }


# -- reduce --------------------------------------------------------------------------

# n = 4..16, ending with the worked example 3,3,2,1^8
REDUCE_MUS = (
    "2,1,1",
    "2,1,1,1",
    "3,1,1,1",
    "2,2,1,1,1",
    "3,2,1,1,1",
    "2,2,1^5",
    "3,2,1^5",
    "4,2,1^5",
    "3,3,1^6",
    "3,2,2,1^6",
    "4,3,1^7",
    "3,3,2,1^7",
    "3,3,2,1^8",
)
# Fraction arithmetic costs 5-110 ms per op at n <= 10 and 0.2-0.6 s beyond,
# which would leave too few QQ ops in a run for a 90th percentile; the seven
# smaller mu are taken twice instead
REDUCE_MUS_QQ = REDUCE_MUS[:7] * 2
REDUCE_MUS_TINY = ("2,1,1", "3,1,1")
REDUCE_FIELDS = (("gf2", GF2), ("gf3", GF3), ("gf32003", GF(32003)), ("qq", QQ))


def qq_nilpotent_candidate(mu, seed: int) -> matrix.ExactMatrix:
    """Seeded nilpotent annihilating-form matrix over QQ with integer entries.

    Outer free coordinates are drawn from [-2, 2]; A22 starts strictly upper
    triangular and is conjugated by m integer unimodular elementary moves
    E = I + xi*e[p,q], xi = +-1, which keeps it nilpotent.
    """
    rnd = random.Random(seed)
    n = mu.n
    m = partitions.split_core(mu).ones
    base = n - m
    rows = [[0] * n for _ in range(n)]
    for r, c in structure.free_coordinates(mu).positions:
        if r < base or c < base:
            rows[r][c] = rnd.randint(-2, 2)
    a22 = [[rnd.randint(-2, 2) if j > i else 0 for j in range(m)] for i in range(m)]
    for _ in range(m if m > 1 else 0):
        p, q = rnd.sample(range(m), 2)
        xi = rnd.choice((-1, 1))
        a22[p] = [x + xi * y for x, y in zip(a22[p], a22[q])]
        for row in a22:
            row[q] -= xi * row[p]
    for i in range(m):
        rows[base + i][base:] = a22[i]
    return matrix.ExactMatrix(QQ, rows)


class Reduce(Workload):
    """JSON matrix -> reduce (validated) -> JSON round trip -> chain_profile -> shape.

    A pass interleaves the four fields, one op per (field, mu).  Every op gets
    a fresh seeded input, so no work is shared between ops.
    """

    def __init__(self, seed, tiny=False, tracer=None):
        super().__init__(seed, tracer)
        lists = []
        for tag, field in REDUCE_FIELDS:
            mus = REDUCE_MUS_TINY if tiny else REDUCE_MUS if field.is_finite else REDUCE_MUS_QQ
            lists.append([(tag, field, partitions.parse_partition(m)) for m in mus])
        self.mix = [lst[j] for j in range(max(map(len, lists))) for lst in lists if j < len(lst)]
        self.pass_len = len(self.mix)
        self._oracles: dict[int, tuple] = {}
        for i in range(self.pass_len):  # the first pass of inputs is built at set-up
            self._input(i)

    def _tracing(self, on: bool):
        return self.tracer.active(on) if self.tracer is not None else contextlib.nullcontext()

    def _input(self, i: int):
        """Input i, made again on every call (traced); its JSON form and oracle are kept."""
        tag, field, mu = self.mix[i % self.pass_len]
        seed = self.seed * 1_000_003 + i
        with self._tracing(True):
            if field.is_finite:
                a = structure.sample_nilpotent_candidate(mu, field, seed)
            else:
                a = qq_nilpotent_candidate(mu, seed)
        if i not in self._oracles:
            with self._tracing(False):
                valid = structure.matches_annihilating_pattern(a, mu) and a.is_nilpotent()
                shape = a.nilpotent_shape() if valid else None
            self._oracles[i] = (json.dumps(a.to_json_dict()), valid, shape)
        return tag, mu, self._oracles[i]

    def op(self, i):
        tag, mu, (doc, valid, shape) = self._input(i)

        def run():
            if not valid:
                raise ValueError("generated input is not a nilpotent annihilating-form matrix")
            a = matrix.ExactMatrix.from_json_dict(json.loads(doc))
            pair = reduction.reduce(a, mu)
            text = json.dumps(pair.to_json_dict())
            back = reduction.ReducedPair.from_json_dict(json.loads(text))
            return back, jordan.shape_of_reduced(back, jordan.chain_profile(back))

        def check(res):
            back, got = res
            return got == shape and reduction.is_reduced(back.matrix, mu, back.lam)

        return Op(tag, run, check)

    def metrics(self, by_class):
        out, samples = _suite_metrics(by_class, {tag: 1 for tag, _ in REDUCE_FIELDS})
        for tag, ts in by_class.items():
            samples[f"reduce_ms.p50.{tag}"] = _p50(ts) * 1e3
            samples[f"reduce_ms.p90.{tag}"] = _p90(ts) * 1e3
        return out, samples


# -- decide --------------------------------------------------------------------------


def _json_ok(text: str, want: dict) -> bool:
    """stdout is one JSON document holding `want`, with `count` matching its list."""
    doc = json.loads(text)
    if "count" in doc and doc["count"] != len(doc.get("shapes", doc.get("pairs", ()))):
        return False
    return all(doc.get(k) == v for k, v in want.items())


class Decide(Workload):
    """Certificate decisions for every partition pair of one n, plus in-process CLI requests."""

    def __init__(self, seed, tiny=False, tracer=None):
        super().__init__(seed, tracer)
        rnd = random.Random(seed)
        sweep_n = 5 if tiny else 12
        parts = partitions.enumerate_partitions(sweep_n)
        self.shapes = {mu: set(characterize.enumerate_shapes(mu)) for mu in parts}
        sweep = [("sweep", mu, nu) for mu in parts for nu in parts]

        requests = []  # (label, argv, expected exit code, expected JSON fields)
        if not tiny:
            for mu in ("2^6,1^12", "3^4,2^4,1^10"):
                requests.append((f"enumerate {mu}", ["enumerate", "--mu", mu], 0, {}))
            requests.append(("components 10 4", ["components", "--n", "10", "--j", "4"], 0, {"n": 10}))
            requests.append(("vnab 11 3 4", ["vnab", "--n", "11", "--a", "3", "--b", "4"], 0, {"n": 11}))
        # witness / roundtrip on distinct pairs, one of each kind per n, so no
        # request reuses another's cached certificate
        kinds = [("witness", "gf2"), ("roundtrip", "gf2"), ("witness", "rational"), ("roundtrip", "rational")]
        for n in range(3, 5 if tiny else 10):
            pn = partitions.enumerate_partitions(n)
            good, bad = [], []
            for mu in pn:
                shapes = set(characterize.enumerate_shapes(mu))
                for nu in pn:
                    (good if nu in shapes else bad).append((mu, nu))
            picks = [(kind, pair, True) for kind, pair in zip(kinds, rnd.sample(good, len(kinds)))]
            if n >= (4 if tiny else 8):
                picks.append((kinds[n % 2], rnd.choice(bad), False))
            for (cmd, field), (mu, nu), ok in picks:
                mu_s, nu_s = partitions.format_partition(mu), partitions.format_partition(nu)
                if cmd == "roundtrip":
                    want = {"ok": ok}
                else:
                    want = {"mu": mu_s, "nu": nu_s} if ok else {"compatible": False}
                argv = [cmd, "--mu", mu_s, "--nu", nu_s, "--field", field]
                requests.append((f"{cmd} {field} {mu_s} {nu_s}", argv, 0 if ok else 1, want))
        self.requests = {label: (argv, code, want) for label, argv, code, want in requests}
        mix = sweep + [("cli", label, None) for label in self.requests]
        rnd.shuffle(mix)
        self.mix = mix
        self.pass_len = len(mix)

    def op(self, i):
        kind, a, b = self.mix[i % self.pass_len]
        if kind == "sweep":
            expect = b in self.shapes[a]
            return Op("check", lambda: characterize.compatible(a, b), lambda cert: (cert is not None) == expect)
        argv, code, want = self.requests[a]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def check(res):
            rc, text = res
            return rc == code and _json_ok(text, want)

        return Op(a, run, check)

    def metrics(self, by_class):
        sweep = by_class["check"]
        req = {c: ts for c, ts in by_class.items() if c != "check"}
        out = {
            "work_per_s": sum(map(len, req.values())) / sum(sum(ts) for ts in req.values()),
            "op_ms.mean": statistics.fmean(sweep) * 1e3,
            "op_ms.p90": _p90(sweep) * 1e3,
        }
        details = {
            "op_ms.p50": _p50(sweep) * 1e3,
            "checks": len(sweep),
            "requests": sum(map(len, req.values())),
            "request_kinds": len(req),
        }
        return out, details

    def layer_metrics(self, by_class, results):
        counts = [v for (key, _), v in self.tracer.truth.items() if key == "characterize.compatible"]
        calls, yes = sum(c for c, _ in counts), sum(y for _, y in counts)
        return {"characterize.compatible.yes_frac": yes / calls if calls else 0.0}


def make(name: str, seed: int, tiny: bool = False, tracer=None) -> Workload:
    kinds = {"census": Census, "verify": Verify, "reduce": Reduce, "decide": Decide}
    return kinds[name](seed, tiny, tracer)
