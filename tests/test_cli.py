"""Command line reports: shapes, schema validity, stability, exit codes."""

import csv
import io
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from toroidal_sl2.cli import run

W00 = '{"h":"0","c1":"0","c2":"0","d1":"0","d2":"0"}'
W11 = '{"h":"1","c1":"1","c2":"0","d1":"0","d2":"0"}'
W12 = '{"h":"1","c1":"2","c2":"0","d1":"0","d2":"0"}'
WGEN = '{"h":"1/2","c1":"1/3","c2":"0","d1":"0","d2":"0"}'


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("toroidal_sl2") / "schema" / "report.schema.json").read_text()
    return json.loads(text)


JSON_COMMANDS = [
    ("bracket", "e(1,0)", "f(-1,0)"),
    ("bracket", "1/2*h(1,2)", "h(-1,-2) + c1"),
    ("roots", "--root", "1,-2,1"),
    ("roots", "--box", "2"),
    ("reflect", "--weight", W11, "--beta", "1,0,0"),
    ("reflect", "--weight", W11, "--word", "r1,r0"),
    ("dims", "--depth", "3"),
    ("singular", "--weight", W11, "--eta", "0,2"),
    ("singular", "--weight", W11, "--depth", "3"),
    ("singular", "--weight", WGEN, "--depth", "2"),
    ("reducible", "--weight", W00),
    ("reducible", "--weight", WGEN, "--kmax", "4"),
    ("quotient-char", "--weight", W11, "--depth", "3"),
    ("demos", "--weight", W11, "--nmax", "3", "--size", "2"),
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_reports_validate_against_schema(argv, schema):
    code, out, _ = invoke(*argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["command"] == argv[0]
    assert doc["version"]
    assert "input" in doc


def test_bracket_report_terms():
    code, out, err = invoke("bracket", "e(1,0)", "f(-1,0)")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["terms"] == [
        {"basis": "h(0,0)", "coeff": "1"},
        {"basis": "c1", "coeff": "1"},
    ]
    assert "h(0,0) + c1" in err


def test_reducible_level_zero_witness():
    code, out, _ = invoke("reducible", "--weight", W00)
    doc = json.loads(out)
    assert doc["result"]["reducible"] is True
    assert {"a": 1, "n1": 0, "n2": 0} in [w["beta"] for w in doc["result"]["witnesses"]]
    assert any(w["l"] == 1 for w in doc["result"]["witnesses"])


def test_singular_scan_orbit_fields():
    _, out, _ = invoke("singular", "--weight", W12, "--depth", "2")
    doc = json.loads(out)
    assert doc["result"]["singular"] == [
        {"eta": [0, 2], "kernel_dim": 1},
        {"eta": [2, 0], "kernel_dim": 1},
    ]
    assert doc["result"]["orbit"] == [[0, 2], [2, 0]]
    assert doc["result"]["orbit_covered"] is True

    _, out, _ = invoke("singular", "--weight", WGEN, "--depth", "2")
    doc = json.loads(out)
    assert doc["result"]["singular"] == []
    assert doc["result"]["orbit"] is None


def test_dims_table_matches_oracle():
    _, out, _ = invoke("dims", "--depth", "3")
    doc = json.loads(out)
    assert all(r["match"] for r in doc["result"]["rows"])
    got = {tuple(r["eta"]): r["dim"] for r in doc["result"]["rows"]}
    assert got[(0, 0)] == 1 and got[(1, 1)] == 2 and got[(1, 2)] == 3


def test_dims_csv_quoting():
    code, out, _ = invoke("dims", "--depth", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["eta", "dim", "pbw", "match"]
    assert ["0,0", "1", "1", "true"] in rows
    assert '"0,0"' in out  # RFC 4180 quoting of the embedded comma


def test_quotient_char_csv_matches_json():
    _, jout, _ = invoke("quotient-char", "--weight", W11, "--depth", "2")
    doc = json.loads(jout)
    _, cout, _ = invoke("quotient-char", "--weight", W11, "--depth", "2",
                        "--format", "csv")
    rows = list(csv.reader(io.StringIO(cout)))
    assert rows[0] == ["eta", "ambient", "submodule", "quotient", "l_oracle"]
    for jrow, crow in zip(doc["result"]["rows"], rows[1:]):
        assert crow == [f"{jrow['eta'][0]},{jrow['eta'][1]}", str(jrow["ambient"]),
                        str(jrow["submodule"]), str(jrow["quotient"]),
                        str(jrow["l_oracle"])]
        assert jrow["quotient"] == jrow["l_oracle"]


def test_output_is_byte_stable():
    for argv in [("singular", "--weight", W11, "--depth", "3"),
                 ("reducible", "--weight", W00),
                 ("demos", "--weight", W11)]:
        _, first, _ = invoke(*argv)
        _, second, _ = invoke(*argv)
        assert first == second


@pytest.mark.parametrize("weight,field", [
    ('{"h":"0","c1":"0","c2":"0","d1":"0"}', "d2"),
    ('{"h":"0","c1":"0","c2":"1","d1":"0","d2":"0"}', "c2"),
    ('{"h":"zz","c1":"0","c2":"0","d1":"0","d2":"0"}', "h"),
    ('{"h":"1/0","c1":"0","c2":"0","d1":"0","d2":"0"}', "h"),
    ('{"h":"0","c1":"-1","c2":"0","d1":"0","d2":"0"}', "c1"),
    ("not json", "JSON"),
])
def test_malformed_weight_exits_two_naming_field(weight, field):
    code, out, err = invoke("reducible", "--weight", weight)
    assert code == 2
    assert field in err


def test_invalid_inputs_exit_two():
    code, _, err = invoke("singular", "--weight", W11, "--eta", "0;2")
    assert code == 2 and "eta" in err
    code, _, err = invoke("quotient-char", "--weight", WGEN, "--depth", "2")
    assert code == 2
    code, _, err = invoke("demos", "--weight", W00)
    assert code == 2 and "k1" in err
    code, _, err = invoke("reflect", "--weight", W11, "--beta", "0,1,0")
    assert code == 2 and "real" in err


@pytest.mark.parametrize("command", [("singular", "--depth", "2"),
                                     ("singular", "--eta", "1,1"),
                                     ("quotient-char", "--depth", "2")])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_two(command, jobs, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr("toroidal_sl2.cli.ProcessPoolExecutor", no_pool)
    code, out, err = invoke(command[0], "--weight", W11, *command[1:], "--jobs", jobs)
    assert code == 2 and out == ""
    assert "jobs" in err


def test_parallel_scan_matches_sequential():
    _, seq, _ = invoke("singular", "--weight", W11, "--depth", "3")
    _, par, _ = invoke("singular", "--weight", W11, "--depth", "3", "--jobs", "2")
    assert seq == par
    _, seq, _ = invoke("quotient-char", "--weight", W11, "--depth", "3")
    _, par, _ = invoke("quotient-char", "--weight", W11, "--depth", "3", "--jobs", "2")
    assert seq == par


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toroidal_sl2", "roots", "--root", "0,1,0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["class"] == "imaginary"
    assert doc["result"]["positive"] is True
