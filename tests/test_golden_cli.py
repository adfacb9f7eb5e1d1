"""Golden-output check: fixed CLI runs must print the same bytes as recorded.

Each case is one in-process `nilpairs` command; its exit code and the
SHA-256 of its stdout are compared with `golden_cli.json`.  The cases are
`reduce` on seeded `sample_nilpotent_candidate` inputs over gf2, gf:3 and
gf:32003, `shape` on every `reduce` output, and `witness`, `roundtrip`,
`reduce` and `shape` over the rationals for the README examples, and
`verify` in both modes over GF(2), small primes and GF(2^31 - 1).

Regenerate the recording (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from nilpairs.cli import main
from nilpairs.fields import parse_field
from nilpairs.partitions import parse_partition
from nilpairs.structure import sample_nilpotent_candidate

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
FIELDS = ("gf2", "gf:3", "gf:32003")
SEEDS = range(5)
MUS = ("2,1,1", "3,2,1^5", "3,3,2,1^8")
README_PAIRS = (("2,1,1", "4"), ("3,3,2,1^8", "5,3,3,3,1,1"))
VERIFY_ARGS = (
    ("--mu", "3,2", "--field", "gf2"),
    ("--mu", "2,1,1", "--field", "gf2"),
    ("--mu", "2,1", "--field", "gf:5"),
    ("--mu", "33", "--field", "gf2"),
    ("--mu", "2,2,1", "--field", "gf:3", "--mode", "sample", "--seed", "9", "--samples", "200"),
    ("--mu", "2,2", "--field", "gf:2147483647", "--mode", "sample", "--seed", "3", "--samples", "50"),
    ("--mu", "2,1", "--field", "gf:3", "--mode", "sample", "--samples", "0"),
)


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _reduce_and_shape(out: dict, tmp: str, key: str, mu: str, matrix_doc: dict) -> None:
    path = os.path.join(tmp, "in.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_doc, fh)
    code, text = _run(["reduce", "--mu", mu, "--input", path])
    out[f"reduce {key}"] = (code, text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out[f"shape {key}"] = _run(["shape", "--input", path])


def collect() -> dict[str, tuple[int, str]]:
    """Case name -> (exit code, stdout) for every golden case."""
    out: dict[str, tuple[int, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIELDS:
            field = parse_field(name)
            for mu in MUS:
                for seed in SEEDS:
                    cand = sample_nilpotent_candidate(parse_partition(mu), field, seed)
                    _reduce_and_shape(out, tmp, f"{name} {mu} seed={seed}", mu, cand.to_json_dict())
        for mu, nu in README_PAIRS:
            key = f"rational {mu} {nu}"
            code, text = _run(["witness", "--mu", mu, "--nu", nu, "--field", "rational"])
            out[f"witness {key}"] = (code, text)
            out[f"roundtrip {key}"] = _run(["roundtrip", "--mu", mu, "--nu", nu, "--field", "rational"])
            _reduce_and_shape(out, tmp, key, mu, json.loads(text)["a"])
    for args in VERIFY_ARGS:
        out["verify " + " ".join(args)] = _run(["verify", *args])
    return out


def digests() -> dict[str, list]:
    return {
        key: [code, hashlib.sha256(text.encode("utf-8")).hexdigest()]
        for key, (code, text) in collect().items()
    }


def test_cli_output_matches_recording():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} outputs differ from the recording, e.g. {changed[:5]}"


if __name__ == "__main__":
    rows = [f"{json.dumps(key)}: {json.dumps(val)}" for key, val in sorted(digests().items())]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
