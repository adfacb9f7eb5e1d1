"""Command-line interface: check / enumerate / witness / reduce / shape /
vnab / components / verify / roundtrip.

All commands are deterministic given their flags and seeds and print JSON by
default (CSV for the enumerating commands via --format csv).  Exit codes:
0 success or compatible, 1 incompatible or verification mismatch, 2 usage or
input errors, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .census import verify_shapes
from .characterize import (
    ConstructionMismatch,
    Incompatible,
    compatible,
    component_pairs,
    enumerate_shapes,
    enumerate_vnab,
    witness,
)
from .fields import parse_field
from .jordan import chain_profile, shape_of_reduced
from .matrix import ExactMatrix
from .partitions import format_partition, parse_partition
from .reduction import PreconditionViolated, ReducedPair, ReductionError, reduce as reduce_form
from .structure import DEFAULT_BUDGET, BudgetExceeded

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _emit_lines(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"JSON input {path!r} is nested too deeply") from None


def _cert_doc(cert) -> dict:
    return {
        "lambda": format_partition(cert.lam),
        "epsilon": list(cert.eps),
        "c": cert.c,
        "d": cert.d,
    }


def _cmd_check(args) -> int:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    cert = compatible(mu, nu)
    doc = {
        "mu": format_partition(mu),
        "nu": format_partition(nu),
        "compatible": cert is not None,
        "certificate": _cert_doc(cert) if cert is not None else None,
    }
    _emit(doc)
    return EXIT_OK if cert is not None else EXIT_NEGATIVE


def _cmd_enumerate(args) -> int:
    mu = parse_partition(args.mu)
    shapes = enumerate_shapes(mu)
    if args.format == "csv":
        _emit_lines([format_partition(s) for s in shapes])
    else:
        _emit(
            {
                "mu": format_partition(mu),
                "count": len(shapes),
                "shapes": [format_partition(s) for s in shapes],
            }
        )
    return EXIT_OK


def _cmd_witness(args) -> int:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    field = parse_field(args.field)
    try:
        pair = witness(mu, nu, field)
    except Incompatible as exc:
        _emit({"error": str(exc), "compatible": False})
        return EXIT_NEGATIVE
    _emit(
        {
            "mu": format_partition(mu),
            "nu": format_partition(nu),
            "a": pair.a.to_json_dict(),
            "b": pair.b.to_json_dict(),
        }
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    mu = parse_partition(args.mu)
    doc = _read_json(args.input)
    matrix = ExactMatrix.from_json_dict(doc)
    pair = reduce_form(matrix, mu)
    _emit(pair.to_json_dict())
    return EXIT_OK


def _cmd_shape(args) -> int:
    doc = _read_json(args.input)
    pair = ReducedPair.from_json_dict(doc)
    profile = chain_profile(pair)
    shape = shape_of_reduced(pair, profile)
    _emit({"shape": format_partition(shape), "profile": profile.to_json_dict()})
    return EXIT_OK


def _pairs_doc(pairs) -> list[list[str]]:
    return [[format_partition(mu), format_partition(nu)] for mu, nu in pairs]


def _emit_pairs_csv(pairs) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for mu, nu in pairs:
        writer.writerow([format_partition(mu), format_partition(nu)])
    sys.stdout.write(buf.getvalue())


def _cmd_vnab(args) -> int:
    pairs = enumerate_vnab(args.n, args.a, args.b)
    if args.format == "csv":
        _emit_pairs_csv(pairs)
    else:
        _emit({"n": args.n, "a": args.a, "b": args.b, "count": len(pairs), "pairs": _pairs_doc(pairs)})
    return EXIT_OK


def _cmd_components(args) -> int:
    pairs = component_pairs(args.n, args.j)
    if args.format == "csv":
        _emit_pairs_csv(pairs)
    else:
        _emit({"n": args.n, "j": args.j, "count": len(pairs), "pairs": _pairs_doc(pairs)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    mu = parse_partition(args.mu)
    field = parse_field(args.field)
    report = verify_shapes(
        mu,
        field,
        mode=args.mode,
        budget=args.budget,
        samples=args.samples,
        seed=args.seed,
    )
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_roundtrip(args) -> int:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    field = parse_field(args.field)
    stages: dict[str, str] = {}
    doc = {"mu": format_partition(mu), "nu": format_partition(nu), "stages": stages, "ok": False}

    cert = compatible(mu, nu)
    if cert is None:
        stages["compatible"] = "incompatible"
        _emit(doc)
        return EXIT_NEGATIVE
    stages["compatible"] = "ok"
    try:
        pair = witness(mu, nu, field)
        stages["witness"] = "ok"
    except ConstructionMismatch as exc:
        stages["witness"] = f"failed: {exc}"
        _emit(doc)
        return EXIT_INTERNAL
    try:
        reduced = reduce_form(pair.a, mu)
        stages["reduce"] = "ok"
    except (PreconditionViolated, ReductionError) as exc:
        stages["reduce"] = f"failed: {exc}"
        _emit(doc)
        return EXIT_INTERNAL
    final = shape_of_reduced(reduced)
    if final != nu:
        stages["shape"] = f"mismatch: got {format_partition(final)}"
        _emit(doc)
        return EXIT_INTERNAL
    stages["shape"] = "ok"
    doc["ok"] = True
    _emit(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilpairs",
        description="Jordan shapes of mutually annihilating nilpotent matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether (mu, nu) is an attainable shape pair")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="all shapes attainable against mu")
    p.add_argument("--mu", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("witness", help="explicit matrix pair realizing (mu, nu)")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--field", default="gf2")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("reduce", help="conjugate an annihilating matrix into reduced form")
    p.add_argument("--mu", required=True)
    p.add_argument("--input", default="-", help="matrix JSON file, or - for stdin")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("shape", help="closed-form shape and chain profile of a reduced pair")
    p.add_argument("--input", default="-", help="reduced-pair JSON file, or - for stdin")
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("vnab", help="shape pairs of the variety with A^a = B^b = 0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_vnab)

    p = sub.add_parser("components", help="shape pairs of the rank-bounded component C_j")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("verify", help="brute-force check of the predicted shape set for mu")
    p.add_argument("--mu", required=True)
    p.add_argument("--field", default="gf2")
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("roundtrip", help="witness then reduce then recompute the shape")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--field", default="gf2")
    p.set_defaults(func=_cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:  # the base of every failed self-check
        _emit({"error": str(exc), "kind": "internal-inconsistency"})
        return EXIT_INTERNAL
    except (ValueError, BudgetExceeded, OSError, KeyError) as exc:
        _emit({"error": str(exc), "kind": "usage"})
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
