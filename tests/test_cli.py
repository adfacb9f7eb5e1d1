import contextlib
import csv
import io
import json
import time

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nilpairs import characterize
from nilpairs.cli import main
from nilpairs.matrix import ExactMatrix
from nilpairs.partitions import Partition, enumerate_partitions, format_partition, parse_partition
from nilpairs.reduction import reduce as reduce_form
from nilpairs.structure import sample_nilpotent_candidate
from nilpairs.fields import GF, GF3, parse_field


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


@pytest.mark.parametrize("argv", [("--samples", "1000000000000"), ("--samples", "201", "--budget", "200")])
def test_verify_samples_past_the_budget_is_usage_error(capsys, argv):
    # sample mode draws at most --budget samples (2^24 by default); more is
    # refused before any draw, where 10^12 draws would run for months
    code, out = run_cli(capsys, "verify", "--mu", "2,1", "--field", "gf2", "--mode", "sample", *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "usage" and "budget" in doc["error"]


@pytest.mark.parametrize("budget", [10**32, 10**39])
def test_verify_budget_past_the_odometer_is_usage_error(capsys, budget):
    # 2,1 over GF(2^31 - 1) has p^4 > 2^63 candidates, more than an int64
    # odometer index reaches, so a budget that admits them is refused anyway
    code, out = run_cli(capsys, "verify", "--mu", "2,1", "--field", "gf:2147483647", "--budget", str(budget))
    assert code == 2
    doc = json.loads(out)  # one JSON document, no traceback
    assert doc["kind"] == "usage" and "budget" in doc["error"]
    assert capsys.readouterr().err == ""


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



# -- the exit-code contract under any argv ----------------------------------------
#
# argv drawn from a bounded grammar of the nine commands: partitions with
# n <= 5 in list and exponent forms, the empty partition's forms and
# malformed text; good and bad field names; small, negative and huge
# integers; missing and unknown flags.  Every example stays small: verify
# always carries a budget of at most 10^4, and reduce and shape always read
# an --input file (named here, resolved in the test's directory), never stdin.

_PARTITION_TEXTS = (
    [format_partition(mu) for n in range(1, 6) for mu in enumerate_partitions(n)]
    + ["2,1^3", "1^5", "3,1^2"]
    + ["", "()", "1^0", " "]
    + ["0", "-1", "a", "2,3", "1^-1"]
)
_FIELD_NAMES = ["gf2", "gf:3", "gf:5", "rational", "gf:4", "gf:2147483647", "gf:1", "gf:x", "qq"]
_SIZES = ["-1", "0", "1", "2", "5", str(10**30)]
_SAMPLE_COUNTS = ["-1", "0", "1", "50", str(10**30)]


def _input_docs() -> dict[str, str]:
    """File name -> contents: matrix envelopes, reduced-pair docs, non-objects, bad entries, bad JSON."""
    cand = sample_nilpotent_candidate(parse_partition("2,2,1"), GF3, 3)
    docs = {
        "candidate-221-gf3": cand.to_json_dict(),
        "candidate-21-gf2": sample_nilpotent_candidate(parse_partition("2,1"), GF(2), 1).to_json_dict(),
        "identity-3": ExactMatrix.identity(GF3, 3).to_json_dict(),
        "zero-1-rational": {"field": "rational", "rows": [["0"]]},
        "reduced-221-gf3": reduce_form(cand, parse_partition("2,2,1")).to_json_dict(),
        "reduced-zero-21": _reduced_pair_doc(),
        "reduced-bad-lambda": _reduced_pair_doc(lam=1),
        "list": [[0]],
        "number": 3,
        "null": None,
        "bool-entry": {"field": "gf2", "rows": [[True]]},
        "string-entry": {"field": "gf:5", "rows": [["x"]]},
        "ragged": {"field": "gf2", "rows": [[0, 0], [0]]},
        "field-gf4": {"field": "gf:4", "rows": [[0]]},
    }
    texts = {f"{name}.json": json.dumps(doc) for name, doc in docs.items()}
    texts.update({"truncated.json": "{", "empty.json": ""})
    return texts


_INPUT_DOCS = _input_docs()


def _flags(command):
    """(required, optional) flags of a command, each with its value strategy."""
    part, field, size = st.sampled_from(_PARTITION_TEXTS), st.sampled_from(_FIELD_NAMES), st.sampled_from(_SIZES)
    fmt = [("--format", st.sampled_from(["json", "csv", "xml"]))]
    return {
        "check": ([("--mu", part), ("--nu", part)], []),
        "enumerate": ([("--mu", part)], fmt),
        "witness": ([("--mu", part), ("--nu", part)], [("--field", field)]),
        "reduce": ([("--mu", part), ("--input", st.sampled_from(sorted(_INPUT_DOCS)))], []),
        "shape": ([("--input", st.sampled_from(sorted(_INPUT_DOCS)))], []),
        "vnab": ([("--n", size), ("--a", size), ("--b", size)], fmt),
        "components": ([("--n", size), ("--j", size)], fmt),
        "verify": (
            [("--mu", part), ("--budget", st.integers(-1, 10**4).map(str))],
            [
                ("--field", field),
                ("--mode", st.sampled_from(["exhaustive", "sample", "both"])),
                ("--samples", st.sampled_from(_SAMPLE_COUNTS)),
                ("--seed", st.integers(-(10**30), 10**30).map(str)),
            ],
        ),
        "roundtrip": ([("--mu", part), ("--nu", part)], [("--field", field)]),
    }[command]


@st.composite
def _argv(draw):
    commands = ["check", "enumerate", "witness", "reduce", "shape", "vnab", "components", "verify", "roundtrip"]
    command = draw(st.sampled_from(commands))
    required, optional = _flags(command)
    flags = [(name, draw(s)) for name, s in required]
    flags += [(name, draw(s)) for name, s in optional if draw(st.booleans())]
    noise = draw(st.sampled_from(["none"] * 4 + ["drop-a-flag", "unknown-flag"]))
    if noise == "drop-a-flag" and flags[0][0] not in ("--budget", "--input"):
        flags = flags[1:]
    argv = [command] + [x for pair in flags for x in pair]
    return argv + ["--bogus"] if noise == "unknown-flag" else argv


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    for name, text in _INPUT_DOCS.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=200)  # nine commands: the profile's 40 would leave some nearly undrawn
@given(argv=_argv())
@example(argv=["verify", "--mu", "", "--budget", "100"])
@example(argv=["verify", "--mu", "", "--mode", "sample", "--samples", "50", "--budget", "100"])
def test_cli_exit_code_contract(input_dir, argv):
    # the exit code is 0, 1, 2 or 3, or argparse raises SystemExit(2) with
    # nothing on stdout, and nothing else escapes; stdout holds one JSON
    # document, or CSV lines of partitions for --format csv with exit 0
    argv = [str(input_dir / a) if i and argv[i - 1] == "--input" else a for i, a in enumerate(argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == ""
            return
    assert code in (0, 1, 2, 3)
    text = out.getvalue()
    if code == 0 and "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        assert text == "" or text.endswith("\n")
        for line in text.splitlines():
            cells = [line] if argv[0] == "enumerate" else next(csv.reader([line]))
            assert len(cells) == (1 if argv[0] == "enumerate" else 2)
            for cell in cells:
                parse_partition(cell)
    else:
        json.loads(text)


# -- the exit-code contract under any JSON input ------------------------------------
#
# reduce and shape read --input files drawn from a grammar of envelopes.  A
# matrix envelope starts as a seeded nilpotent candidate (its entries shifted
# by multiples of p, so huge and negative ints occur) or as random rows, and
# may then get a foreign entry (a bool, a float, a fraction string, "1/0" or
# other text, null), a ragged, empty or non-list row, non-list rows, and a
# missing or odd field.  shape reads a reduced-pair document: a real
# reduction or two envelopes, with mu and lambda that may be wrong or absent.

_JSON_FIELDS = ["gf2", "gf:3", "gf:5", "gf:2147483647", "rational"]
_ODD_FIELDS = ["gf:4", "gf:", "gf:-7", "gf:" + "9" * 30, "qq", " RATIONAL ", 3, None, True, ["gf2"]]
_FOREIGN_ENTRIES = st.one_of(
    st.booleans(),
    st.floats(),  # NaN and the infinities too: json writes them as bare tokens
    st.sampled_from(["1/2", "-3/4", "7", "1/0", "0/0", "x", "", " 2 ", "1.5", "2^3"]),
    st.none(),
)


def _is_foreign(v) -> bool:
    """A bool, float or null: no field takes it as an entry."""
    return v is None or isinstance(v, (bool, float))


@st.composite
def _matrix_envelope(draw, mu):
    n = mu.n
    field = draw(st.sampled_from(_JSON_FIELDS))
    if field != "rational" and n and draw(st.booleans()):
        f = parse_field(field)
        cand = sample_nilpotent_candidate(mu, f, draw(st.integers(0, 2**32)))
        rows = [[v + f.order * draw(st.sampled_from([0, 0, -1, 10**30])) for v in r] for r in cand.rows]
    else:
        rows = draw(st.lists(st.lists(st.integers(-(10**40), 10**40), min_size=n, max_size=n), min_size=n, max_size=n))
    if rows and draw(st.integers(0, 3)) == 0:
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[r][c] = draw(_FOREIGN_ENTRIES)
    shape = draw(st.sampled_from(["square"] * 12 + ["ragged", "empty-row", "non-list-row", "rows-not-list"]))
    if shape == "ragged" and rows:
        rows[-1] = rows[-1][:-1] + ([0, 0] if not rows[-1] else [])
    elif shape == "empty-row":
        rows.append([])
    elif shape == "non-list-row":
        rows.append(draw(st.sampled_from([0, "0", {"0": 0}, None])))
    elif shape == "rows-not-list":
        rows = draw(st.sampled_from([{"0": [0]}, "[[0]]", 0, None]))
    doc = {"rows": rows}
    field_key = draw(st.sampled_from(["kept"] * 6 + ["odd", "missing"]))
    if field_key != "missing":
        doc["field"] = field if field_key == "kept" else draw(st.sampled_from(_ODD_FIELDS))
    return doc


@st.composite
def _json_request(draw):
    """(argv without --input, the document, whether the document holds a foreign entry)."""
    n = draw(st.integers(0, 4))
    mu = draw(st.sampled_from(list(enumerate_partitions(n)) or [Partition()]))
    mu_text = draw(st.sampled_from([format_partition(mu)] * 6 + ["1^4", "2,1", "x"]))
    if draw(st.booleans()):
        doc = draw(_matrix_envelope(mu))
        argv = ["reduce", "--mu", mu_text]
    else:
        field = parse_field(draw(st.sampled_from(_JSON_FIELDS[:-1])))
        if n and draw(st.booleans()):
            doc = reduce_form(sample_nilpotent_candidate(mu, field, draw(st.integers(0, 2**32))), mu).to_json_dict()
            doc["matrix"]["rows"][-1][-1] = draw(st.one_of(st.just(doc["matrix"]["rows"][-1][-1]), _FOREIGN_ENTRIES))
        else:
            doc = {"mu": mu_text, "lambda": format_partition(mu), "matrix": draw(_matrix_envelope(mu))}
            doc["transform"] = draw(_matrix_envelope(mu))
        drop = draw(st.sampled_from([None] * 6 + ["mu", "lambda", "matrix", "transform"]))
        if drop:
            doc[drop] = draw(st.sampled_from([None, 3, "x"])) if draw(st.booleans()) else doc.pop(drop)
        argv = ["shape"]
    if draw(st.integers(0, 19)) == 0:
        argv = argv[:1]  # reduce without --mu is argparse's usage error; shape still runs
    rows = [doc.get("rows")] + [m.get("rows") for m in (doc.get("matrix"), doc.get("transform")) if isinstance(m, dict)]
    foreign = any(_is_foreign(v) for rs in rows if isinstance(rs, list) for r in rs if isinstance(r, list) for v in r)
    return argv, doc, foreign


@settings(max_examples=150)
@given(request=_json_request())
def test_cli_json_input_contract(tmp_path_factory, request):
    # exit 0, 1, 2 or 3, nothing escapes as a traceback, stdout one JSON
    # document (empty for argparse's usage error), and an entry no field
    # takes (a bool, a float, null) never decodes
    argv, doc, foreign = request
    path = tmp_path_factory.getbasetemp() / "json-input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--input", str(path)])
        except SystemExit as exc:
            code = exc.code
            assert code == 2 and out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3)
    event(f"{argv[0]} exit {code}")
    if out.getvalue():
        json.loads(out.getvalue())
    if foreign:
        assert code == 2
