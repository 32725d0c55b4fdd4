"""CLI behaviour: every documented example runs, reports are deterministic
and schema-valid, config text parses into every setting."""

import json
import re
import shlex
from math import perm
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicksonrs
from dicksonrs import charsum, cli, sieve
from dicksonrs.cli import ExperimentConfig, emit, main, run_suite

README = Path(__file__).resolve().parent.parent / "README.md"
SCHEMA = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "dicksonrs"
    / "schema"
    / "run_report.schema.json"
)


def _readme_commands():
    text = README.read_text()
    blocks = re.findall(r"```(?:console|text)?\n(.*?)```", text, flags=re.S)
    cmds = []
    for block in blocks:
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("dickson "):
                cmds.append(line)
    return cmds


def test_readme_has_examples():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("cmd", _readme_commands(), ids=lambda c: c[:60])
def test_readme_example_runs(cmd, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(shlex.split(cmd)[1:])
    assert rc == 0, f"{cmd!r} exited {rc}"
    out = capsys.readouterr().out
    if "--out" not in cmd and "--format csv" not in cmd:
        json.loads(out)  # stdout must be well-formed JSON


def test_value_set_json_fields(capsys):
    assert main(["value-set", "--field", "7", "--n", "2", "--a", "1", "--elems"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "q": 7,
        "n": 2,
        "a": 1,
        "size_formula": 4,
        "size_enum": 4,
        "delta": 0.5,
        "elems": [0, 2, 5, 6],
        "match": True,
    }


def test_region_json_contains_paper_claim(capsys):
    assert main(["region", "--field", "2^16", "--n", "3", "--c1", "0.015"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_min"] == 16
    assert doc["paper_claim"]["k_max"] == 21182
    assert doc["paper_claim"]["discrepancy"] is True


def test_bound_json_scales(capsys):
    assert main(["bound", "--field", "2^16", "--n", "3", "--k", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["guaranteed"] is True
    assert doc["log10_lhs"] > doc["log10_rhs"]
    assert doc["lhs"] > doc["rhs"] > 0


def test_deephole_word_and_poly_inputs(capsys):
    # the same word three ways: b1, polynomial literal, raw JSON values
    base = ["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1"]
    docs = []
    for extra in (
        ["--b1", "3"],
        ["--word-poly", "0,4,1"],  # x^2 + 4x = x^2 - 3x
        ["--word", "[0,5,3,4]"],
    ):
        assert main(base + extra) == 0
        docs.append(json.loads(capsys.readouterr().out))
    for doc in docs:
        assert doc["reports"][0]["b1"] == 3
        assert doc["reports"][0]["is_deep_hole"] is True
        # a deep hole of interpolant degree k+1 sits exactly at |D| - k
        assert doc["reports"][0]["distance"] == doc["size_d"] - 1


def test_deephole_distance_upper_for_non_deep_hole(capsys):
    assert main(["deephole", "--field", "7", "--n", "2", "--a", "1",
                 "--k", "1", "--b1", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["reports"][0]
    assert rep["is_deep_hole"] is False
    assert rep["distance_upper"] == doc["size_d"] - 2
    assert rep["subset"] == [2, 5]


def _report_and_status(argv, tmp_path, capsys) -> tuple[str, int]:
    """The stdout and exit status of a one-shot call, after checking that
    with `--out` the same call prints nothing, writes those exact bytes and
    exits the same way."""
    status = main(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == status
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    return stdout, status


ONE_SHOTS = {
    "field": "field --field 2^4",
    "value-set": "value-set --field 7 --n 2 --a 1 --elems",
    "preimage": "preimage --field 7 --n 2 --a 1 --all-x0",
    "charsum": "charsum --field 2^4 --n 3 --a 1 --which weil3 --all-characters",
    "deephole": "deephole --field 7 --n 2 --a 1 --k 1 --all-b1 --brute-force-crosscheck",
    "bound": "bound --field 2^8 --n 3 --k 3 --size-d 40",
    "region": "region --field 2^16 --n 3 --c1 0.015",
}


@pytest.mark.parametrize("command", sorted(ONE_SHOTS))
def test_out_file_holds_the_stdout_bytes(command, tmp_path, capsys):
    stdout, status = _report_and_status(shlex.split(ONE_SHOTS[command]), tmp_path, capsys)
    assert status == 0
    json.loads(stdout)


def test_failing_value_set_report_is_written(monkeypatch, tmp_path, capsys):
    real = cli.value_set_size_formula
    monkeypatch.setattr(cli, "value_set_size_formula",
                        lambda spec: real(spec)._replace(size=real(spec).size + 1))
    argv = ["value-set", "--field", "7", "--n", "2", "--a", "1"]
    stdout, status = _report_and_status(argv, tmp_path, capsys)
    assert status == 1
    doc = json.loads(stdout)
    assert (doc["size_formula"], doc["size_enum"], doc["match"]) == (5, 4, False)


def test_failing_deephole_crosscheck_report_is_written(monkeypatch, tmp_path, capsys):
    # b1 = 1 is no deep hole (distance |D|-k-1 = 2); one more disagrees
    real = cli.error_distance_bf
    monkeypatch.setattr(cli, "error_distance_bf", lambda word, budget: real(
        word, budget)._replace(distance=real(word, budget).distance + 1))
    argv = ["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1", "--b1", "1",
            "--brute-force-crosscheck"]
    stdout, status = _report_and_status(argv, tmp_path, capsys)
    assert status == 1
    (rep,) = json.loads(stdout)["reports"]
    assert (rep["is_deep_hole"], rep["distance"], rep["crosscheck_agree"]) == (False, 3, False)


def test_unequal_weil3_rows_fail_the_pair_check(monkeypatch, tmp_path, capsys):
    # the second route's row is the splitting row on F_q^* in characteristic 2;
    # negating one entry of it must show up as a pair gap of 2 in the suite and one-shot
    real = charsum._weil3_shift_tables
    monkeypatch.setattr(charsum, "_weil3_shift_tables", lambda field, a: (
        (-real(field, a)[0],) + real(field, a)[1:]))
    report = run_suite(ExperimentConfig(field="2^3", suites=("charsum",), n=(2,), a=(1,)))
    (inst,) = report.suites[0].instances
    assert inst.status == "fail" and inst.detail.endswith("pair_gap=2.000e+00")
    argv = ["charsum", "--field", "2^3", "--n", "2", "--a", "1", "--which", "weil3"]
    stdout, status = _report_and_status(argv, tmp_path, capsys)
    assert status == 1
    (entry,) = json.loads(stdout)["reports"]
    assert entry["pair_deviation"] == 2.0 and entry["pass"] is False


def test_field_errors_exit_2(capsys):
    assert main(["field", "--field", "6^2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_range_rejected():
    cfg = ExperimentConfig(field="7", n=())
    with pytest.raises(ValueError):
        run_suite(cfg)
    with pytest.raises(ValueError, match="a range must be non-empty"):
        ExperimentConfig(field="7", a=()).validate()


def test_unknown_suite_rejected():
    cfg = ExperimentConfig(field="7", suites=("nope",))
    with pytest.raises(ValueError):
        run_suite(cfg)


def test_config_from_text():
    # one line per setting, so every setting's parser is pinned
    text = ("field=2^4\nsuites=valueset,deephole\nn=2..4\na=1,3\nk=1,2\nc1=0.02\n"
            "format=csv\nbudget-subsets=12345\nbudget-dp=54321\nout=report.csv\n")
    cfg = ExperimentConfig(
        field="2^4",
        suites=("valueset", "deephole"),
        n=(2, 3, 4),
        a=(1, 3),
        k=(1, 2),
        c1=0.02,
        out="report.csv",
        format="csv",
        budget_subsets=12345,
        budget_dp=54321,
    )
    assert ExperimentConfig.from_text(text) == cfg
    # 'all' is the sentinel None: every unit of the field
    assert ExperimentConfig.from_text(text.replace("a=1,3", "a=all")) == cfg._replace(a=None)


def test_config_rejects_garbage():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("field=7\nthis is not a key value line\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("suites=valueset\n")  # missing field


def test_suite_report_deterministic(tmp_path):
    cfg_text = "field=7\nsuites=valueset,preimage,charsum\nn=2..4\na=all\nk=1\n"
    (tmp_path / "run.cfg").write_text(cfg_text)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        rc = main(["suite", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- the report writer: json.dumps(obj, sort_keys=True, indent=2) is its oracle


def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@st.composite
def _record_lists(draw):
    """Lists of records, most of them flat: one key set and one value type
    per column; the columns that draw from all scalars may mix types."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    kinds = [st.none(), st.booleans(), st.integers(), st.floats(), st.text(), _SCALARS]
    cols = {k: draw(st.sampled_from(kinds)) for k in keys}
    return draw(st.lists(st.fixed_dictionaries(cols), min_size=1, max_size=5))


_JSON_VALUES = st.recursive(
    _SCALARS | _record_lists(),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dump_json_matches_json_dumps(obj):
    assert cli._dump_json(obj) == _reference_json(obj)


@st.composite
def _records(draw):
    """`cli.Records` with int and str columns under distinct str keys."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    cols = [draw(st.sampled_from([st.integers(), st.text()])) for _ in keys]
    return cli.Records(tuple(keys), draw(st.lists(st.tuples(*cols), max_size=5)))


def _as_dicts(obj):
    """obj with each `cli.Records` replaced by its list of dicts: json.dumps's input."""
    if type(obj) is cli.Records:
        return [dict(zip(obj.keys, row)) for row in obj]
    if type(obj) is dict:
        return {k: _as_dicts(v) for k, v in obj.items()}
    return obj


@settings(max_examples=300, deadline=None)
@given(_records(), st.text(max_size=3))
def test_dump_json_writes_records_as_json_dumps_writes_their_dicts(records, key):
    for obj in (records, {key: records, "z": 1}):
        assert cli._dump_json(obj) == _reference_json(_as_dicts(obj))


@pytest.mark.parametrize("obj", [
    cli.Records(("a%s", "%", "%%(x)s"), [(1, "50%", 2), (3, "%d", 4)]),
    cli.Records(("s",), [("\u00e9\u2028\x00\n\t\"\\\U0001f600",), ("\x7f\x1f",)]),
    {"r": cli.Records(("n", "m"), [(10**40, -(2**70)), (-1, 0)])},
    cli.Records(("k",), []),
], ids=lambda obj: repr(obj)[:40])
def test_dump_json_writes_records_on_edge_cases(obj):
    assert cli._dump_json(obj) == _reference_json(_as_dicts(obj))


def test_preimage_report_holds_no_per_point_dict(monkeypatch, capsys):
    # --all-x0 hands the writer the formula's tuples as Records, one list for
    # every point, and the bytes stay json.dumps's text of one dict per point
    seen, real = [], cli._dump_json

    def dump_json(obj):
        seen.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "_dump_json", dump_json)
    assert main(["preimage", "--field", "7", "--n", "2", "--a", "1", "--all-x0"]) == 0
    (doc,) = seen
    reports = doc["reports"]
    assert type(reports) is cli.Records and len(reports) == 7
    assert not any(isinstance(row, dict) for row in reports)
    assert capsys.readouterr().out == _reference_json(_as_dicts(doc))


@pytest.mark.parametrize("obj", [
    [{"a%s": 1, "%": "50%", "%%(x)s": 2}, {"a%s": 3, "%": "%d", "%%(x)s": 4}],
    {"r": [{"s": "\u00e9\u2028\x00\n\t\"\\\U0001f600"}, {"s": "\x7f\x1f"}]},
    [{"n": 10**40, "m": -(2**70)}, {"n": -1, "m": 0}],
    [{"f": float("nan")}, {"f": float("inf")}, {"f": float("-inf")}, {"f": -0.0}, {"f": 1e300}],
    [{"v": True}, {"v": 1}],
    [{"v": 1}, {"v": 1.0}],
    [{"v": None, "w": False}, {"v": None, "w": True}],
    [], {}, [{}], [{}, {}], {"a": [], "b": {}}, [[]],
    [{"a": 1}, {"b": 2}],
    [{"a": 1}, {"a": 1, "b": 2}],
    {2: "x", 10: "y"},
    [{1: 2}, {1: 3}],
    {"r": {3: 1, 1: 2}, "s": [{"k": 1}]},
    {"t": (1, 2)}, [(1, 2)], ("a", {"b": [{"c": 1}]}),
    [{"x": [1]}, {"x": [2]}],
    [{"x": 1}, [1]],
    "text", 7, None, 2.5,
], ids=lambda obj: repr(obj)[:40])
def test_dump_json_matches_json_dumps_on_edge_cases(obj):
    assert cli._dump_json(obj) == _reference_json(obj)


def test_suite_json_validates_against_schema(tmp_path):
    cfg = ExperimentConfig(field="2^3", suites=("valueset", "region"), n=(2, 3), k=(1,))
    report = run_suite(cfg)
    doc = json.loads(emit(report, "json"))
    schema = json.loads(SCHEMA.read_text())
    jsonschema.validate(doc, schema)
    assert doc["overall_pass"] is True


def test_suite_csv_header():
    cfg = ExperimentConfig(field="5", suites=("valueset",), n=(2,), a=(1,), k=(1,))
    report = run_suite(cfg)
    lines = emit(report, "csv").splitlines()
    assert lines[0] == "suite,q,n,a,k,b1,x0,check,status,detail"
    assert len(lines) == 2  # header + the one instance


def test_emit_rejects_an_unknown_format():
    report = run_suite(ExperimentConfig(field="5", suites=("valueset",), n=(2,), a=(1,)))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(report, "xml")


def test_suite_budget_skip_records():
    cfg = ExperimentConfig(
        field="7", suites=("deephole",), n=(2,), a=(1,), k=(1,), budget_dp=5
    )
    report = run_suite(cfg)
    instances = report.suites[0].instances
    assert instances and all(i.status == "skipped" for i in instances)
    assert all("budget" in i.detail for i in instances)
    assert report.overall_pass  # skips never fail a run


def test_suite_exit_status_reflects_failures(tmp_path, capsys):
    rc = main(
        ["suite", "--field", "7", "--suites", "valueset,preimage,sieve",
         "--n", "2..4", "--a", "all", "--k", "1", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 0


def test_suite_failure_is_reported(monkeypatch, capsys):
    # a formula one too large fails the valueset check in every serializer
    real = cli.value_set_size_formula
    monkeypatch.setattr(cli, "value_set_size_formula",
                        lambda spec: real(spec)._replace(size=real(spec).size + 1))
    argv = ["suite", "--field", "7", "--suites", "valueset", "--n", "2", "--a", "1"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall_pass"] is False
    assert doc["suites"][0]["failures"] == [
        {"params": {"q": 7, "n": 2, "a": 1}, "detail": "formula=5 enum=4 delta=1/2"}
    ]
    assert main(argv + ["--format", "csv"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["valueset,7,2,1,,,,,fail,formula=5 enum=4 delta=1/2"]


def test_region_suite_2_16_reports_k_min(tmp_path):
    cfg = ExperimentConfig(
        field="2^16", suites=("region",), n=(3,), a=(1,), k=(16,), c1=0.015
    )
    report = run_suite(cfg)
    instances = report.suites[0].instances
    assert len(instances) == 1 and instances[0].status == "pass"
    assert "k_min=16" in instances[0].detail
    assert "21182" in instances[0].detail  # the reference claim is echoed


def test_region_suite_passes_an_empty_window():
    # at c1 = 0.45 no k clears the gate: k_max = k_min - 1 is an outcome, not a failure
    cfg = ExperimentConfig(field="2^8", suites=("region",), n=(3,), a=(1,), c1=0.45)
    (inst,) = run_suite(cfg).suites[0].instances
    assert inst.status == "pass"
    assert inst.detail == "k_min=8 k_max=7 size_d=171 (empty window)"


def test_config_budgets_survive_flagless_invocation(tmp_path):
    # a config-file budget must not be clobbered by the flag default
    (tmp_path / "run.cfg").write_text(
        "field=7\nsuites=deephole\nn=2\na=1\nk=1\nbudget-dp=5\n"
    )
    out = tmp_path / "r.csv"
    rc = main(["suite", "--config", str(tmp_path / "run.cfg"),
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert "skipped: budget" in out.read_text()


def test_wall_clock_not_serialized():
    cfg = ExperimentConfig(field="5", suites=("valueset",), n=(2,), a=(1,), k=(1,))
    report = run_suite(cfg)
    assert report.suites[0].wall_clock >= 0.0
    assert "wall" not in emit(report, "json")


def _exit_status(argv) -> int:
    """main()'s return value, or the status of argparse's usage error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_config_rejects_unknown_key(tmp_path, capsys):
    with pytest.raises(ValueError, match="budgetdp"):
        ExperimentConfig.from_text("field=7\nbudgetdp=5\n")
    (tmp_path / "run.cfg").write_text("field=7\nsuites=valueset\nbudgetdp=5\n")
    assert main(["suite", "--config", str(tmp_path / "run.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["field", "--field", "2^4", "--format", "csv"],
    ["bound", "--field", "7", "--n", "2", "--k", "1", "--budget-dp", "5"],
    ["value-set", "--field", "7", "--n", "2", "--a", "1", "--both"],
], ids=["field-format", "bound-budget", "value-set-both"])
def test_flags_a_subcommand_never_reads_are_usage_errors(argv, capsys):
    assert _exit_status(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1", "--b1", "0", "--all-b1"],
    ["preimage", "--field", "7", "--n", "2", "--a", "1", "--x0", "1", "--all-x0"],
    ["charsum", "--field", "7", "--n", "2", "--a", "1", "--which", "lemma",
     "--b", "2", "--all-characters"],
    ["charsum", "--field", "7", "--n", "2", "--a", "1", "--which", "lemma",
     "--b", "1", "--all-characters"],
], ids=["b1", "x0", "b", "b-default"])
def test_contradictory_sources_rejected(argv, capsys):
    assert _exit_status(argv) == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    ["--format", "xml"], ["--n", "1"], ["--a", "0"], ["--k", "0"], ["--budget-dp", "0"],
    ["--n", "5..3"], ["--k", ""],
], ids=["format", "n", "a", "k", "budget", "n-empty", "k-empty"])
def test_suite_rejects_invalid_setting(setting, capsys):
    assert _exit_status(["suite", "--field", "7", "--suites", "valueset", *setting]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["region", "--field", "2^16", "--n", "3", "--c1", "inf"],
    ["region", "--field", "2^16", "--n", "3", "--c1", "nan"],
    ["region", "--field", "2^16", "--n", "3", "--c1=-inf"],
    ["suite", "--field", "7", "--suites", "region", "--n", "2", "--a", "1", "--c1", "nan"],
    ["suite", "--field", "7", "--suites", "region", "--n", "2", "--a", "1", "--c1", "inf"],
], ids=["region-inf", "region-nan", "region-neg-inf", "suite-nan", "suite-inf"])
def test_a_non_finite_c1_exits_2_and_writes_nothing(argv, capsys):
    # json.dumps would print Infinity or NaN, which is not JSON
    assert _exit_status(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: c1 must be finite" in captured.err


def test_a_config_with_a_non_finite_c1_exits_2(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("field=7\nsuites=region\nn=2\na=1\nc1=nan\n")
    assert main(["suite", "--config", str(tmp_path / "run.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: c1 must be finite, got nan" in captured.err


def test_missing_word_source_or_field_exits_2(capsys):
    assert _exit_status(["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1"]) == 2
    assert _exit_status(["preimage", "--field", "7", "--n", "2", "--a", "1"]) == 2
    assert _exit_status(["suite", "--suites", "valueset"]) == 2
    assert "error:" in capsys.readouterr().err


# [0,5,3,4] is a valid word here (test_deephole_word_and_poly_inputs); each
# of these differs from an int array only in type
@pytest.mark.parametrize(
    "word", ['[0.0,5,3,4]', '["a",5,3,4]', '[true,5,3,4]', '[false,5,3,4]', '{"a":1}'])
def test_deephole_word_must_be_int_array(word, capsys):
    argv = ["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1", "--word", word]
    assert main(argv) == 2
    assert "error: --word must be a JSON array" in capsys.readouterr().err


def test_deephole_word_of_the_wrong_length_exits_2(capsys):
    argv = ["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1", "--word", "[1,2]"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: word length 2 != |D| = 4" in captured.err


def test_missing_files_exit_2(tmp_path, capsys):
    assert main(["suite", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "missing_dir" / "x.json"
    assert main(["field", "--field", "7", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "deephole --field 7 --n 2 --a 1 --k 1 --b1 3 --budget-subsets 1",
    "deephole --field 7 --n 2 --a 1 --k 1 --all-b1 --budget-subsets 10000000",
    "bound --field 2^8 --n 3 --k 3 --size-d 40 --a 2",
    "bound --field 2^8 --n 3 --k 3 --size-d 40 --a 1",
    "region --field 2^16 --n 3 --c1 0.015 --size-d 40000 --a 1",
], ids=["budget-subsets", "budget-subsets-default", "bound-a", "bound-a-default", "region-a"])
def test_flags_that_would_be_ignored_are_refused(argv, capsys):
    # --budget-subsets caps only the crosscheck, --a only picks D for the
    # size formula; a value equal to the default counts as given too
    assert _exit_status(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.search("needs --brute-force|not allowed with", captured.err)


@pytest.mark.parametrize("argv", [
    "bound --field 7 --n 3 --k 1 --size-d",
    "region --field 7 --n 3 --c1 0.9 --size-d",
], ids=["bound", "region"])
def test_size_d_above_q_exits_2(argv, capsys):
    # D is a subset of F_q: |D| = q runs (region's gate passes for |D| = 8 too)
    assert _exit_status(argv.split() + ["7"]) in (0, 1)
    capsys.readouterr()
    assert _exit_status(argv.split() + ["8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "(D is a subset of F_7)" in captured.err


def test_value_set_formula_rejects_elems(capsys):
    argv = ["value-set", "--field", "7", "--n", "2", "--a", "1", "--formula", "--elems"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--elems" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("module", ["mpmath", "dataclasses", "dicksonrs.charsum",
                                    "dicksonrs.sieve"])
def test_cli_import_leaves_module_unloaded(module, fresh_python):
    # each loads only in the handlers that use it: mpmath in the bound
    # check, charsum and sieve in their subcommands and suites
    code = ("import sys; before = set(sys.modules); import dicksonrs.cli; "
            f"print({module!r} in set(sys.modules) - before)")
    assert fresh_python(code) == "False"


def _loads_after(fresh_python, argv: str, module: str) -> bool:
    """Whether `main(argv)` in a fresh interpreter leaves `module` loaded."""
    code = ("import contextlib, io, sys; from dicksonrs.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    main({argv.split()!r})\n"
            f"print({module!r} in sys.modules)")
    return fresh_python(code) == "True"


@pytest.mark.parametrize("argv", [
    "deephole --field 2^4 --n 3 --a 1 --k 2 --all-b1",
    "region --field 2^8 --n 3 --c1 0.015",
    "bound --field 2^8 --n 3 --k 3",
    "suite --field 2^4 --suites deephole,sieve,region --n 2..3 --a 1 --k 1",
])
def test_size_d_runs_leave_fractions_unloaded(argv, fresh_python):
    # |D| is an integer rule; only the value-set report builds Fractions
    assert not _loads_after(fresh_python, argv, "fractions")


@pytest.mark.parametrize("argv, loaded", [
    ("bound --field 2^8 --n 3 --k 3", False),
    ("region --field 2^8 --n 3 --c1 0.015", False),
    ("suite --field 2^4 --suites region --n 2..3 --a 1", False),
    ("suite --field 2^4 --suites sieve --n 2..3 --a 1", True),
])
def test_only_the_sieve_identity_loads_charsum(argv, loaded, fresh_python):
    # sieve imports charsum's character table inside sieve_identity_F
    assert _loads_after(fresh_python, argv, "dicksonrs.charsum") is loaded


def test_suite_names_agree_everywhere():
    schema = json.loads(SCHEMA.read_text())
    names = schema["properties"]["suites"]["items"]["properties"]["name"]["enum"]
    assert cli.SUITE_NAMES == tuple(cli._SUITE_RUNNERS) == tuple(names)


def test_charsum_suite_keeps_one_preimage_weights_entry():
    # keyed per cell: each cell's CellSums holds its own fiber defect, built
    # once; the weights 1/N_x, which only `weighted_sum` reads, are not built
    memos = charsum._preimage_weights, charsum._fiber_defect
    for memo in memos:
        memo.cache_clear()
    cfg = ExperimentConfig.from_text("field=2^3\nsuites=charsum\nn=2..3\na=all")
    report = run_suite(cfg)
    assert len(report.suites[0].instances) == 14
    assert [memo.cache_info()[2:] for memo in memos] == [(1, 0), (1, 1)]  # (maxsize, currsize)
    assert charsum._fiber_defect.cache_info().misses == 14


def test_enumerating_suites_keep_one_values_vector_entry():
    # valueset, preimage, sieve and deephole enumerate each (n, a) cell once;
    # none of them may keep a q-tuple per cell in values_vector's cache
    from dicksonrs.dickson import values_vector

    values_vector.cache_clear()
    cfg = ExperimentConfig.from_text(
        "field=2^5\nsuites=valueset,preimage,sieve,deephole\nn=2..3\nk=1"
    )
    report = run_suite(cfg)
    assert all(i.status != "fail" for s in report.suites for i in s.instances)
    info = values_vector.cache_info()
    assert info.maxsize == 1 and info.currsize <= 1


@pytest.mark.parametrize("field, memo", [("2^4", "_weil3_shift_tables"), ("3^2", "splitting_row")])
def test_charsum_suite_builds_each_a_row_once(field, memo):
    # the suite reads its cells grouped by a, so every n of one a reads the one
    # entry; in grid order (n-major) cells (2, a) and (3, a) lie q - 1 apart.
    # For odd q the weil2 row and the fiber defect read the same splitting row
    rows = getattr(charsum, memo)
    rows.cache_clear()
    report = run_suite(ExperimentConfig.from_text(f"field={field}\nsuites=charsum\nn=2..3\na=all"))
    assert all(i.status == "pass" for i in report.suites[0].instances)
    info = rows.cache_info()
    assert (info.misses, info.currsize) == (dicksonrs.parse_field_spec(field).q - 1, 1)


def test_charsum_suite_evaluates_each_cell_once(monkeypatch):
    # each cell reads its values and defect while the one-entry memo still
    # holds its D_n row: one evaluation of D_n per cell, not three
    from dicksonrs import dickson

    cells, real = [], dickson._coefficients

    def coefficients(field, n, a):
        cells.append((n, a))
        return real(field, n, a)

    monkeypatch.setattr(dickson, "_coefficients", coefficients)
    dickson.values_vector.cache_clear()
    report = run_suite(ExperimentConfig.from_text("field=2^6\nsuites=charsum\nn=2..3\na=1,2"))
    assert [i.status for i in report.suites[0].instances] == ["pass"] * 4
    assert cells == [(2, 1), (3, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("field, which", [
    ("2^4", "lemma"), ("2^4", "weil1"), ("2^4", "weil3"), ("2^4", "identity"),
    ("3^2", "lemma"), ("3^2", "weil1"), ("3^2", "weil2"), ("3^2", "identity"),
])
def test_charsum_single_b_matches_the_walk(field, which, capsys):
    # `--b` goes through the single-b evaluator, `--all-characters` through
    # the walk; both must print the same entry for every unit b
    argv = ["charsum", "--field", field, "--n", "3", "--a", "1", "--which", which]
    main(argv + ["--all-characters"])
    walked = json.loads(capsys.readouterr().out)["reports"]
    F = dicksonrs.parse_field_spec(field)
    assert [entry["b"] for entry in walked] == list(F.units())
    for entry in walked:
        main(argv + ["--b", str(entry["b"])])
        assert json.loads(capsys.readouterr().out)["reports"] == [entry]


@pytest.mark.parametrize("which", ["lemma", "weil1", "weil2", "weil3", "identity"])
def test_charsum_out_of_range_b_exits_2(which, capsys):
    argv = ["charsum", "--field", "2^6", "--n", "3", "--a", "1", "--which", which, "--b", "64"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_over_budget_all_b1_fails_before_building_words(capsys):
    # the DP budget fires on the first word; no word is evaluated over D
    # before it, so memory does not grow with q*|D| (about 400 MB here)
    import tracemalloc

    tracemalloc.start()
    try:
        status = main(["deephole", "--field", "2^12", "--n", "3", "--a", "1", "--k", "1",
                       "--all-b1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 50 * 2**20
    captured = capsys.readouterr()
    assert captured.out == "" and "DP size" in captured.err


def _refuse(*args, **kwargs):
    raise AssertionError("the budgets must refuse the work before this runs")


def test_over_budget_deephole_fails_before_enumerating(monkeypatch, capsys):
    # the DP budget needs only |D|, which the size formula gives without
    # enumerating the 65,536 points of 2^16
    monkeypatch.setattr(cli, "value_set", _refuse)
    assert main(["deephole", "--field", "2^16", "--n", "3", "--a", "1", "--k", "3",
                 "--all-b1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "DP size" in captured.err


@pytest.mark.parametrize("a", ["1", "0"])  # |D| = 4 from the formula, and from enumeration
@pytest.mark.parametrize("source", [["--b1", "1"], ["--all-b1"], ["--word", "[0,1,2,3]"],
                                    ["--word-poly", "0,1"]], ids=lambda s: s[0])
def test_deephole_without_degree_k1_words_exits_2(source, a, capsys):
    # k + 2 > |D| leaves no word of interpolant degree k+1 to test
    argv = ["deephole", "--field", "7", "--n", "2", "--a", a, "--k", "3", *source]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no degree-(k+1) words (k+1 > |D|-1): k = 3, |D| = 4" in captured.err


def test_over_budget_all_b1_builds_no_word(monkeypatch, capsys):
    # both budgets are checked once per code, before the first word is built
    built = []
    real = cli.monomial_word
    monkeypatch.setattr(cli, "monomial_word", lambda code, b1: built.append(b1) or real(code, b1))
    assert main(["deephole", "--field", "2^16", "--n", "3", "--a", "1", "--k", "3",
                 "--all-b1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "DP size" in captured.err
    assert built == []


@pytest.mark.parametrize("source", ["word", "word-poly"])
def test_over_budget_word_fails_before_interpolating(source, monkeypatch, capsys):
    # |D| = 2731 at (2^12, n=3, a=1), so the DP for k = 1 is over its budget;
    # the word's values would need a 2731-point interpolation, and x^2731 an
    # evaluation at every point of D (and it has the wrong degree as well)
    from dicksonrs import polyring, rscode

    F = dicksonrs.parse_field_spec("2^12")
    D = dicksonrs.value_set(dicksonrs.DicksonSpec(F, 3, 1))
    if source == "word":
        text = json.dumps([F.add(F.mul(x, x), F.mul(5, x)) for x in D.elems])
    else:
        text = ",".join(["0"] * D.size + ["1"])
    monkeypatch.setattr(rscode, "lagrange_interpolate", _refuse)
    monkeypatch.setattr(polyring.Polynomial, "evaluate", _refuse)
    assert main(["deephole", "--field", "2^12", "--n", "3", "--a", "1", "--k", "1",
                 f"--{source}", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "DP size" in captured.err


def test_preimage_all_x0_obeys_the_enumeration_budget(monkeypatch, capsys):
    monkeypatch.setattr(cli, "preimage_counts", _refuse)
    assert main(["preimage", "--field", "2^21", "--n", "3", "--a", "1", "--all-x0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "enumeration budget" in captured.err


def test_preimage_reports_the_formula_domain_before_the_point(capsys):
    # n = 1 is outside the formulas' domain and 9 is outside F_7: the domain wins
    assert main(["preimage", "--field", "7", "--n", "1", "--a", "1", "--x0", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "counting formulas require" in captured.err


# 3^13 = 1,594,323 and 2^21 both exceed the budget 2^20; lemma, which
# enumerates D first, is the control
@pytest.mark.parametrize("which, field", [("weil1", "2^21"), ("weil3", "2^21"),
                                          ("weil2", "3^13"), ("lemma", "2^21"),
                                          ("identity", "2^21")])
@pytest.mark.parametrize("chars", [["--b", "1"], ["--all-characters"]], ids=["b1", "all"])
def test_charsum_obeys_the_enumeration_budget(which, field, chars, monkeypatch, capsys):
    monkeypatch.setattr(charsum, "_gather", _refuse)
    monkeypatch.setattr(dicksonrs.FiniteField, "trace", _refuse)
    n = "2" if field == "3^13" else "3"
    assert main(["charsum", "--field", field, "--n", n, "--a", "1", "--which", which,
                 *chars]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "enumeration budget" in captured.err


def test_suite_budget_skip_covers_only_the_budgets(monkeypatch):
    # a word that fails to be decided is an error, not a budget skip
    def broken(word, budget):
        raise ValueError("broken word")

    monkeypatch.setattr(cli, "deg_k1_deep_hole_test", broken)
    cfg = ExperimentConfig(field="7", suites=("deephole",), n=(2,), a=(1,), k=(1,))
    with pytest.raises(ValueError, match="broken word"):
        run_suite(cfg)


def test_budget_subsets_bounds_every_crosschecked_word(capsys):
    # |D| = 4 and k = 1: 7 words of C(4, 1) = 4 pencil parameters each
    argv = ["deephole", "--field", "7", "--n", "2", "--a", "1", "--k", "1", "--all-b1",
            "--brute-force-crosscheck", "--budget-subsets"]
    assert main(argv + ["27"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "subset budget 27" in captured.err
    assert main(argv + ["28"]) == 0
    capsys.readouterr()
    assert main(["suite", "--field", "7", "--suites", "deephole", "--n", "2", "--a", "1",
                 "--k", "1", "--budget-subsets", "27", "--format", "csv"]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.endswith("(subset-sum only)")
    assert main(["suite", "--field", "7", "--suites", "deephole", "--n", "2", "--a", "1",
                 "--k", "1", "--budget-subsets", "28", "--format", "csv"]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.endswith("all 7 b1 values agree")


def test_region_suite_fails_a_window_the_bound_chain_does_not_guarantee(monkeypatch):
    # the real 2^16 window stretched to k_max = |D| - 2, where the
    # falling-factorial chain gives no guarantee
    real = sieve.region_solve
    monkeypatch.setattr(sieve, "region_solve", lambda q, n, size_d, c1: real(
        q, n, size_d, c1)._replace(k_max=size_d - 2))
    cfg = ExperimentConfig(field="2^16", suites=("region",), n=(3,), a=(1,), c1=0.015)
    (inst,) = run_suite(cfg).suites[0].instances
    assert inst.status == "fail" and "k_max=43689" in inst.detail


def test_skipped_suite_cells_never_enumerate(monkeypatch):
    # every rule that skips a deephole or sieve cell needs only |D|, which the
    # size formula gives without reading an element of 2^16
    monkeypatch.setattr(cli, "value_set", _refuse)
    monkeypatch.setattr(dicksonrs.FiniteField, "elements", _refuse)
    cfg = ExperimentConfig(field="2^16", suites=("deephole", "sieve"), n=(3,), a=(1, 2),
                           k=(1, 2, 3))
    deephole, sieve_ = run_suite(cfg).suites
    assert [i.detail for i in deephole.instances] == ["skipped: budget (DP)"] * 6
    glob, *cells = sieve_.instances
    assert glob.params == {"q": 2**16, "check": "global"} and glob.status == "pass"
    assert [i.detail for i in cells] == ["skipped: budget (|D| > 12)"] * 2


def test_deephole_exits_2_exactly_where_the_suite_skips(capsys):
    # one runner decides both entry points; on this grid k + 2 > |D| (n = 2,
    # k = 3) and the DP budget (|D|*(k+1)*7 > 100) each refuse some instances
    grid = ["--field", "7", "--n", "2..3", "--a", "all", "--k", "1..3", "--budget-dp", "100"]
    assert main(["suite", "--suites", "deephole", "--format", "csv", *grid]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 36 and "pass" in {row[-2] for row in rows}
    assert {row[-1] for row in rows if row[-2] == "skipped"} == {
        "skipped: no degree-(k+1) words (k+1 > |D|-1)", "skipped: budget (DP)"}
    for _, _, n, a, k, *_, status, _ in rows:
        code = main(["deephole", "--field", "7", "--n", n, "--a", a, "--k", k, "--all-b1",
                     "--budget-dp", "100"])
        out = capsys.readouterr().out
        assert (code == 2) == (status == "skipped")
        if code != 2:
            doc = json.loads(out)
            assert sum(e["n_u"] for e in doc["reports"]) == perm(doc["size_d"], int(k) + 1)


@pytest.mark.parametrize("budget_dp, deephole_detail", [
    (None, "skipped: budget (DP)"),
    (10**15, "skipped: budget (q = 2097152 exceeds the enumeration budget 1048576)"),
])
def test_suite_cells_past_the_enumeration_budget_are_skips(budget_dp, deephole_detail,
                                                           monkeypatch, capsys):
    # the |D| rules come first; F.elements() is the one whole-field enumerator
    monkeypatch.setattr(cli, "value_set", _refuse)
    argv = ["suite", "--field", "2^21", "--suites", "deephole,sieve", "--n", "3", "--a", "1",
            "--k", "1", "--format", "csv"]
    if budget_dp is not None:
        argv += ["--budget-dp", str(budget_dp)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"deephole,2097152,3,1,1,,,,skipped,{deephole_detail}",
        "sieve,2097152,,,,,,global,pass,\"cycle counts, rising factorial, periodic bound\"",
        "sieve,2097152,3,1,,,,,skipped,skipped: budget (|D| > 12)",
    ]


def _one_suite_instance(cfg):
    (suite,) = run_suite(cfg).suites
    (inst,) = suite.instances
    return inst


def test_deephole_suite_reports_a_crosscheck_that_disagrees(monkeypatch):
    # one too small: the non-deep holes stay below the radius |D|-k = 3, the
    # first deep hole (b1 = 3) drops to 2 and disagrees with the subset sums
    real = cli.error_distance_bf
    monkeypatch.setattr(cli, "error_distance_bf", lambda word, budget: real(
        word, budget)._replace(distance=real(word, budget).distance - 1))
    cfg = ExperimentConfig(field="7", suites=("deephole",), n=(2,), a=(1,), k=(1,))
    inst = _one_suite_instance(cfg)
    assert (inst.status, inst.detail) == ("fail", "b1=3: distance 2 vs subset-sum True")


def test_deephole_suite_reports_a_wrong_n_u_total(monkeypatch):
    real = cli.count_Nu
    monkeypatch.setattr(cli, "count_Nu",
                        lambda code, b1, budget: real(code, b1, budget) + (b1 == 0))
    cfg = ExperimentConfig(field="7", suites=("deephole",), n=(2,), a=(1,), k=(1,))
    inst = _one_suite_instance(cfg)
    assert (inst.status, inst.detail) == ("fail", "sum N_u = 13 != (|D|)_{k+1} = 12")


def test_preimage_suite_reports_the_first_wrong_count(monkeypatch):
    real = cli.preimage_counts

    def off_at_3(spec, xs):
        for rep in real(spec, xs):
            yield rep._replace(count=rep.count + 1) if rep.x0 == 3 else rep

    monkeypatch.setattr(cli, "preimage_counts", off_at_3)
    cfg = ExperimentConfig(field="7", suites=("preimage",), n=(2,), a=(1,))
    inst = _one_suite_instance(cfg)
    assert inst.status == "fail"
    assert inst.params == {"q": 7, "n": 2, "a": 1, "x0": 3}
    assert inst.detail == "formula=3 brute=2 (+0 more)"


# outside the size formula's domain (n = 1 or a = 0) the runner enumerates D
# to read |D|: D_1(x, 1) = x gives D = F_7, and D_2(x, 0) = x^2 the squares
@pytest.mark.parametrize("n, a, size_d", [(1, 1, 7), (2, 0, 4)])
def test_deephole_enumerates_d_first_outside_the_formula_domain(n, a, size_d, capsys):
    assert main(["deephole", "--field", "7", "--n", str(n), "--a", str(a), "--k", "1",
                 "--all-b1", "--brute-force-crosscheck"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size_d"] == size_d and len(doc["reports"]) == 7
    assert all(r["crosscheck_agree"] for r in doc["reports"])
    assert sum(r["n_u"] for r in doc["reports"]) == perm(size_d, 2)


def test_deephole_suite_enumerates_each_cell_once(monkeypatch, capsys):
    # every k of an (n, a) cell reads the same D; each evaluation of D_n,
    # whole-field or not, starts from its closed-form coefficients
    from dicksonrs import dickson

    cells = []
    real = dickson._coefficients

    def coefficients(field, n, a):
        cells.append((n, a))
        return real(field, n, a)

    monkeypatch.setattr(dickson, "_coefficients", coefficients)
    dickson.values_vector.cache_clear()
    assert main(["suite", "--field", "7", "--suites", "deephole", "--n", "2..3", "--a", "1,2",
                 "--k", "1..3"]) == 0
    capsys.readouterr()
    assert cells == [(2, 1), (2, 2), (3, 1), (3, 2)]
