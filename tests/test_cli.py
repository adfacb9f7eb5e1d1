import json
import time

import pytest

from nilpairs import characterize
from nilpairs.cli import main
from nilpairs.matrix import ExactMatrix
from nilpairs.partitions import Partition, parse_partition
from nilpairs.structure import sample_nilpotent_candidate
from nilpairs.fields import GF, GF3


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_compatible(capsys):
    code, out = run_cli(capsys, "check", "--mu", "3,3,2,1^8", "--nu", "5,3,3,3,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["compatible"] is True
    assert doc["certificate"]["lambda"] == "3,2,2,1"
    assert doc["certificate"]["epsilon"] == [2, 1, 1, 2]
    assert doc["certificate"]["c"] == 0 and doc["certificate"]["d"] == 2


def test_check_incompatible_exit_code(capsys):
    code, out = run_cli(capsys, "check", "--mu", "2,2", "--nu", "3,1")
    assert code == 1
    assert json.loads(out)["compatible"] is False


def test_check_usage_error(capsys):
    code, out = run_cli(capsys, "check", "--mu", "1,2", "--nu", "3")
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_failed_certificate_check_exits_internal(capsys, monkeypatch):
    # Certificate.check raises a plain AssertionError; the CLI maps every
    # AssertionError, the base of all self-check failures, to exit 3
    wrong = characterize.Certificate(lam=Partition([1]), eps=(0,), c=0, d=0)
    monkeypatch.setattr(characterize, "_compatible_cached", lambda mu, nu: wrong)
    code, out = run_cli(capsys, "check", "--mu", "2,1", "--nu", "3")
    assert code == 3
    assert json.loads(out)["kind"] == "internal-inconsistency"


def test_enumerate_formats(capsys):
    code, out = run_cli(capsys, "enumerate", "--mu", "3,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["shapes"] == ["2,2,1", "2,1,1,1", "1,1,1,1,1"]
    code, out_csv = run_cli(capsys, "enumerate", "--mu", "3,2", "--format", "csv")
    assert code == 0
    assert out_csv.splitlines() == ["2,2,1", "2,1,1,1", "1,1,1,1,1"]


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "enumerate", "--mu", "4,3,2,1")
    _, out2 = run_cli(capsys, "enumerate", "--mu", "4,3,2,1")
    assert out1 == out2
    _, w1 = run_cli(capsys, "witness", "--mu", "3,2,1,1", "--nu", "4,3,1")
    _, w2 = run_cli(capsys, "witness", "--mu", "3,2,1,1", "--nu", "4,3,1")
    assert w1 == w2
    _, v1 = run_cli(capsys, "verify", "--mu", "2,2,1", "--field", "gf:3", "--mode", "sample", "--samples", "200", "--seed", "9")
    _, v2 = run_cli(capsys, "verify", "--mu", "2,2,1", "--field", "gf:3", "--mode", "sample", "--samples", "200", "--seed", "9")
    assert v1 == v2


def test_witness_and_reduce_pipeline(tmp_path, capsys):
    code, out = run_cli(capsys, "witness", "--mu", "2,1,1", "--nu", "4")
    assert code == 0
    doc = json.loads(out)
    amat = tmp_path / "a.json"
    amat.write_text(json.dumps(doc["a"]))
    code, red_out = run_cli(capsys, "reduce", "--mu", "2,1,1", "--input", str(amat))
    assert code == 0
    red = json.loads(red_out)
    assert red["mu"] == "2,1,1"
    assert red["lambda"] == "2"
    # matrix and transform round-trip through the envelope
    m = ExactMatrix.from_json_dict(red["matrix"])
    t = ExactMatrix.from_json_dict(red["transform"])
    a = ExactMatrix.from_json_dict(doc["a"])
    assert t.mul(a).mul(t.inverse()) == m
    red_file = tmp_path / "red.json"
    red_file.write_text(red_out)
    code, shape_out = run_cli(capsys, "shape", "--input", str(red_file))
    assert code == 0
    sh = json.loads(shape_out)
    assert sh["shape"] == "4"
    assert "e1" in sh["profile"] and "f" in sh["profile"]


def test_witness_incompatible_exit(capsys):
    code, out = run_cli(capsys, "witness", "--mu", "2,2", "--nu", "3,1")
    assert code == 1
    assert json.loads(out)["compatible"] is False


def test_reduce_bad_input_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "gf2", "rows": [[1, 0], [0, 1]]}))
    code, out = run_cli(capsys, "reduce", "--mu", "1,1", "--input", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": 5},
        {"field": "gf2", "rows": 5},
        {"field": 5, "rows": [[0]]},
        {"field": "rational", "rows": [["1/0"]]},
        [[0]],
    ],
    ids=["rows-only", "rows-not-a-list", "field-not-a-string", "zero-denominator", "top-level-list"],
)
def test_reduce_malformed_input_is_usage_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "reduce", "--mu", "1", "--input", str(bad))
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_shape_top_level_list_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, out = run_cli(capsys, "shape", "--input", str(bad))
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_reduce_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    a = sample_nilpotent_candidate(parse_partition("2,2,1"), GF3, 3)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(a.to_json_dict())))
    code, out = run_cli(capsys, "reduce", "--mu", "2,2,1")
    assert code == 0
    assert json.loads(out)["mu"] == "2,2,1"


def test_vnab_and_components(capsys):
    code, out = run_cli(capsys, "vnab", "--n", "4", "--a", "2", "--b", "2")
    assert code == 0
    doc = json.loads(out)
    assert ["2,1,1", "2,2"] in doc["pairs"]
    assert all(len(p) == 2 for p in doc["pairs"])
    code, out = run_cli(capsys, "components", "--n", "4", "--j", "3")
    assert code == 0
    doc = json.loads(out)
    assert ["1,1,1,1", "4"] in doc["pairs"]
    code, out = run_cli(capsys, "components", "--n", "4", "--j", "9")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--mu", "1^70"),
        ("vnab", "--n", "41", "--a", "2", "--b", "2"),
        ("components", "--n", "41", "--j", "3"),
    ],
    ids=["enumerate", "vnab", "components"],
)
def test_enumerations_above_max_n_are_usage_errors(capsys, argv):
    # the n <= 40 guard of the certificate search applies before any enumeration
    t0 = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


@pytest.mark.parametrize("mu, count", [("2^10,1^20", 15_972), ("3,3,2,1^30", 17_940)])
def test_enumerate_large_n(capsys, mu, count):
    # each set takes well under a second; the bound catches a return to walking
    # every epsilon assignment of every lambda, which took about 25 s per case
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "enumerate", "--mu", mu, "--format", "csv")
    assert time.perf_counter() - t0 < 10.0
    assert code == 0
    assert len(out.splitlines()) == count


def test_verify_exhaustive_cli(capsys):
    code, out = run_cli(capsys, "verify", "--mu", "3,2", "--field", "gf2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equal"
    assert doc["observed"] == ["2,2,1", "2,1,1,1", "1,1,1,1,1"]


def test_sampled_verify_that_checked_nothing_says_so(capsys):
    # at p = 2^31 - 1 no draw of 30 has a nilpotent A22, so nothing is
    # dual-checked; the report says so, and only then
    argv = ("--mu", "2,1", "--field", "gf:2147483647", "--mode", "sample", "--samples", "30")
    code, out = run_cli(capsys, "verify", *argv)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "subset" and doc["observed"] == []
    assert doc["details"] == {"checked": 0}
    for argv in (("--field", "gf:3", "--samples", "30"), ("--field", "gf:3", "--samples", "0")):
        code, out = run_cli(capsys, "verify", "--mu", "2,1", "--mode", "sample", *argv)
        assert code == 0 and "details" not in json.loads(out), argv


def test_modulus_past_int64_is_usage_error(capsys):
    code, out = run_cli(capsys, "verify", "--mu", "2,1", "--field", f"gf:{2**63 + 29}", "--mode", "sample")
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_verify_budget_guard(capsys):
    code, out = run_cli(capsys, "verify", "--mu", "1^5", "--field", "gf2", "--budget", "1000")
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_roundtrip_cli(capsys):
    code, out = run_cli(capsys, "roundtrip", "--mu", "3,3,2,1^8", "--nu", "5,3,3,3,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["stages"] == {
        "compatible": "ok",
        "witness": "ok",
        "reduce": "ok",
        "shape": "ok",
    }
    code, out = run_cli(capsys, "roundtrip", "--mu", "2,2", "--nu", "3,1")
    assert code == 1
    assert json.loads(out)["stages"]["compatible"] == "incompatible"
    code, out = run_cli(capsys, "roundtrip", "--mu", "6", "--nu", "1^6")
    assert code == 0  # witness A = 0


def test_csv_outputs(capsys):
    code, out = run_cli(capsys, "vnab", "--n", "4", "--a", "2", "--b", "2", "--format", "csv")
    assert code == 0
    assert '"2,1,1","2,2"' in out.splitlines()
    code, out = run_cli(capsys, "components", "--n", "3", "--j", "1", "--format", "csv")
    assert code == 0


def test_shape_rejects_non_reduced_input(tmp_path, capsys):
    # corner entry 2 violates the all-ones requirement of the reduced form
    rows = [[0, 0, 2], [0, 0, 0], [0, 0, 0]]
    doc = {
        "mu": "2,1",
        "lambda": "1",
        "matrix": ExactMatrix(GF3, rows).to_json_dict(),
        "transform": ExactMatrix.identity(GF3, 3).to_json_dict(),
    }
    bad = tmp_path / "notreduced.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "shape", "--input", str(bad))
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def _write_json(tmp_path, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _reduced_pair_doc(lam="1", transform=None):
    """The 3x3 zero matrix as a reduced pair for mu = 2,1 over GF(3)."""
    return {
        "mu": "2,1",
        "lambda": lam,
        "matrix": ExactMatrix.zeros(GF3, 3, 3).to_json_dict(),
        "transform": (transform or ExactMatrix.identity(GF3, 3)).to_json_dict(),
    }


def test_shape_accepts_the_zero_reduced_pair(tmp_path, capsys):
    code, out = run_cli(capsys, "shape", "--input", _write_json(tmp_path, _reduced_pair_doc()))
    assert code == 0
    assert json.loads(out)["shape"] == "1,1,1"


@pytest.mark.parametrize(
    "doc",
    [
        _reduced_pair_doc(lam=1),
        _reduced_pair_doc(transform=ExactMatrix.identity(GF3, 1)),
        _reduced_pair_doc(transform=ExactMatrix.identity(GF(5), 3)),
    ],
    ids=["non-string-lambda", "transform-1x1-for-n-3", "transform-over-another-field"],
)
def test_shape_bad_envelope_is_usage_error(tmp_path, capsys, doc):
    code, out = run_cli(capsys, "shape", "--input", _write_json(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_huge_partition_exponent_is_rejected_before_expanding(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "check", "--mu", "1^99999999999", "--nu", "3")
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


@pytest.mark.parametrize("field", ["gf2", "gf:5", "rational"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_matrix_entries_are_usage_errors(tmp_path, capsys, field, value):
    path = _write_json(tmp_path, {"field": field, "rows": [[value]]})
    code, out = run_cli(capsys, "reduce", "--mu", "1", "--input", path)
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_verify_negative_samples_is_usage_error(capsys):
    code, out = run_cli(capsys, "verify", "--mu", "2,1", "--field", "gf:3", "--mode", "sample", "--samples", "-5")
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out = run_cli(capsys, "reduce", "--mu", "1", "--input", str(path))
    assert code == 2
    assert json.loads(out)["kind"] == "usage"
