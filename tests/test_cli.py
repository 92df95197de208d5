"""Command line reports: shapes, schema validity, stability, exit codes."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from toroidal_sl2.cli import run

W00 = '{"h":"0","c1":"0","c2":"0","d1":"0","d2":"0"}'
W11 = '{"h":"1","c1":"1","c2":"0","d1":"0","d2":"0"}'
W12 = '{"h":"1","c1":"2","c2":"0","d1":"0","d2":"0"}'
WGEN = '{"h":"1/2","c1":"1/3","c2":"0","d1":"0","d2":"0"}'
# not dominant; its singular weights (2,1) and (0,4) come out of a scan in
# the opposite of their report order
W31 = '{"h":"3","c1":"1/2","c2":"0","d1":"0","d2":"0"}'
W23 = '{"h":"2","c1":"3","c2":"0","d1":"0","d2":"0"}'
# n0 = 2 and n0 = 1 with n1 not integral: kernels at (3,0) and (2,0)
WHALF = '{"h":"-1/2","c1":"3/2","c2":"0","d1":"1/3","d2":"-2"}'
WTHIRD = '{"h":"2/3","c1":"5/3","c2":"0","d1":"0","d2":"1/2"}'
# its resonance scan bound is 1,022,119, with no integral term below it
WSLOW = '{"h":"1/1009","c1":"1/1013","c2":"0","d1":"0","d2":"0"}'
# the threshold edges of the quotient's generators: n1 = 0 and n0 = 0
W01 = '{"h":"0","c1":"1","c2":"0","d1":"0","d2":"0"}'
W33 = '{"h":"3","c1":"3","c2":"0","d1":"0","d2":"0"}'


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


# SHA-256 of stdout, recorded before the linear-combination, Weyl-chain and
# CLI scan code were merged; every report must stay byte-identical.
GOLDEN_STDOUT = [
    (("singular", "--weight", W12, "--eta", "2,0"),
     "7e04ae5530af92f9ce44c7db6dfc4636e227b1dda4a0b922b820b5004733a43f"),
    (("singular", "--weight", W12, "--depth", "6"),
     "e7efeda470fc4c21df46976921b56c5a3ee2afca5e032cacbee4788d830ff6fc"),
    (("singular", "--weight", W12, "--depth", "6", "--jobs", "2"),
     "e7efeda470fc4c21df46976921b56c5a3ee2afca5e032cacbee4788d830ff6fc"),
    (("singular", "--weight", WGEN, "--depth", "4"),
     "d71e5bfd72f9104d4f00ea72b7dfde235c4ce4281e2887b41d62355fb283e698"),
    (("singular", "--weight", WGEN, "--depth", "4", "--jobs", "2"),
     "d71e5bfd72f9104d4f00ea72b7dfde235c4ce4281e2887b41d62355fb283e698"),
    (("singular", "--weight", W31, "--depth", "4"),
     "4ad9d327580d316cd85c10bfa9aaba27d12d329cb4b1a406dd3aa1aa52311f5c"),
    (("singular", "--weight", W31, "--depth", "4", "--jobs", "2"),
     "4ad9d327580d316cd85c10bfa9aaba27d12d329cb4b1a406dd3aa1aa52311f5c"),
    (("quotient-char", "--weight", W12, "--depth", "5", "--jobs", "2"),
     "6b0551864d8e9d8e8e01a20f3732825b0d76fa88cf56c9950b937559b50cb70b"),
    (("quotient-char", "--weight", W12, "--depth", "5", "--format", "csv", "--jobs", "2"),
     "27c276d63f150471dccd4cd993a2f7190fc947244da1a83838a11cf49a4650f5"),
    (("dims", "--depth", "6"),
     "273206928690a936926bc4121582cc2a9db8b74569aafc6e46d4b70aabbc9908"),
    (("reducible", "--weight", WGEN),
     "5f97a5d10e8de3915beffa8c9427c350389357b46b42eb67e32e30448e745ded"),
    (("bracket", "1/2*h(1,2) + e(0,1)", "h(-1,-2) + f(0,-1) + c1"),
     "3b8e0f61b9ade042a75a3d65f5be0830f34e015bbe22b3a80151d471d5b4d4ba"),
    (("demos", "--weight", W11),
     "93af1fcad1b17e52150d58d0862b60008ba27a817a88ad73377225a2b16ea8d3"),
    (("quotient-char", "--weight", W23, "--depth", "14", "--jobs", "1"),
     "78bfb23dae400a8e57c21509b8b7b3b17fd7f2b070670f928479a08eef2e688e"),
    (("reducible", "--weight", WSLOW),
     "40c4343b2111ba3f7e8fde37d1704fb241360acdf94f5aad304b15153d7afaa9"),
    # recorded before the runners stopped writing their own reports
    (("roots", "--root", "1,-2,1"),
     "34ab90bf2055ee488a154df16091a23b356e73f25f21d9516b1094df9dabb124"),
    (("roots", "--root", "2,0,0"),
     "b61574315943c92038154b1800eb2751e0dcb4bd87633da59a4bfc8abe122dc9"),
    (("roots", "--box", "2"),
     "811eeb9338c126a294e898dbeabf970c9f27ef1af56b98498e963f471d11c0c2"),
    (("reflect", "--weight", W11, "--beta", "1,0,0"),
     "092e38f737f1cdfcb0d5220b40a1f2c4aa85a3a39096607bc6336164f6ec7b31"),
    (("reflect", "--weight", W11, "--word", "r1,r0"),
     "c798b89d8cbb0dae894de91065408be8ac84026b01adab5e6ecc503368bd20db"),
    (("reducible", "--weight", WGEN, "--kmax", "4"),
     "5e6811cf6db7d0e74ce9fdd45785cff3cb1a7195cdcf2958eac19a203d739792"),
    (("dims", "--depth", "4", "--format", "csv"),
     "175a2df93a2562bee24281de0ec3d2636b27e6378736a045a87423f8fadcdc0b"),
    (("singular", "--weight", W12),
     "4738b70c2fe1b586214f683500ae3f277ea244aad8fa1b597ae3759c1f043b56"),
    # recorded before raising matrices were built at weight zero: a kernel at
    # non-integral n1, and nonzero d-values
    (("singular", "--weight", WHALF, "--depth", "6"),
     "da83f9744629f33fc49e5424cd4f1392f5f6dfafe2c7dc538eca020ff9ed6aad"),
    (("singular", "--weight", WTHIRD, "--eta", "2,0"),
     "ba774d665011bbd9c9f802295af2035474f746776fe28eaf18db9a91b55230c8"),
    # recorded before the quotient was taken modulo f(0,0)^(n1+1) v by its
    # monomial basis
    (("quotient-char", "--weight", W01, "--depth", "8"),
     "6f3a52458e1e10d56293a8eb03086e0119df5b5dceed11fadbed87c489f26d2c"),
    (("quotient-char", "--weight", W33, "--depth", "8"),
     "50b4b7e3ef01017d9aeab1ef2740a31dc62924e2629296274b8aba9b25ccb0e8"),
    # recorded before level-0 bases were built from smaller bases: every
    # basis to height 16, and a kernel vector of 47 terms in a 51-monomial
    # basis, whose reduced echelon form fixes the basis order at height 12
    (("dims", "--depth", "16"),
     "65360775b13f379c063a70c415716fc60f0953e20abfa688db6804788931bce2"),
    (("singular", "--weight", W01, "--eta", "4,8"),
     "06140e4e4c553b2e486ba228249cd4b38718462b3e1ba040c69ec6f5d64140cb"),
    # recorded before linalg took integer rows only: a pairing matrix of
    # rational entries, which the demo clears of k1's denominator
    (("demos", "--weight", WTHIRD, "--size", "7"),
     "b1dc4d1c9963120f3257a39372f054a867fe8780a8c71c93be4a71ff0e4c70a4"),
]


# SHA-256 of the stderr summary of each GOLDEN_STDOUT invocation, in order,
# recorded before the runners stopped writing their own reports.
GOLDEN_STDERR = [
    "5c51e4ec67d915641712883180a6952ffd25f7bbe18d91484b2531f2ac9e37ef",  # 00 singular
    "ed197558d00979d8dd075db16ddbbc9b00429818e580b3d92f0899fdb5425393",  # 01 singular
    "ed197558d00979d8dd075db16ddbbc9b00429818e580b3d92f0899fdb5425393",  # 02 singular
    "585374ce28551d8f2d11d082fbb87c8aa8bea873090d9c797c7fafb0530b61be",  # 03 singular
    "585374ce28551d8f2d11d082fbb87c8aa8bea873090d9c797c7fafb0530b61be",  # 04 singular
    "1e8195fb4820fd0086577cbfcecc16f1b325a5d31760a4442de7f3f3962f80f1",  # 05 singular
    "1e8195fb4820fd0086577cbfcecc16f1b325a5d31760a4442de7f3f3962f80f1",  # 06 singular
    "86686d0595f4bc0ae1fe384e40d21ede92943c4b66f23da2f7ae57f1cb4225e0",  # 07 quotient-char
    "86686d0595f4bc0ae1fe384e40d21ede92943c4b66f23da2f7ae57f1cb4225e0",  # 08 quotient-char
    "20a8b8f8d2d10bfd1556aa9b3dfbae4fef385ff57a62ef1c339b7533c89835ec",  # 09 dims
    "02ea45fd77509bba7130278669067624cafed5f7d2cd1aff9ec8b8cdd98131f3",  # 10 reducible
    "264de842bdaa8f7266fa9362a8bb31faa56d2fddd1c5515e553fcbe984574953",  # 11 bracket
    "18701d945be0f35972650e7dcf1c5d39e66a1809f82eb6ac8c4d90cbf4cdd93a",  # 12 demos
    "1ee4955b3d5a03acce85c373fcc95e816f1a45d01597469e37af13df15a01349",  # 13 quotient-char
    "739c95193de8df1b75a7e8d7d774a6f5b454e212b336e4a9f2e2ff38aa6fd6c7",  # 14 reducible
    "315a6efd61e1f41b023f6ca078bb3cd32a63e31c16380c69643ebf78114b774b",  # 15 roots
    "b364865de57f16e80444a623d839d88c14f79ddc06b1ab289556535b9c9aa15e",  # 16 roots
    "8fb73628e3ff793a022b21f29ecf6edc9703be2e7ccd662c9f8e50d79b1d1e8f",  # 17 roots
    "32975ae176b913659a082f2c6482412e24efd1f16cbaaa37b0d1cc28c7dfd53d",  # 18 reflect
    "2d9e5ed30ecb083c36ec223c50005b3d4f645cd7ae2f20539871cb9ad92f8d67",  # 19 reflect
    "9ac2b7daa09fbb89ab988c76616cf266ae9c90423e1e5626a6a7bfea39af0709",  # 20 reducible
    "2f98fff50130a0669ff4f337c09a47771172cd372915a164e798475cc059f3f3",  # 21 dims
    "ce881355b8cce0ee2e9cb004959446fba967dc7d7eb73471b02205eb966b498d",  # 22 singular
    "f923e9a07b0e1378e57bbcf79d30c45b5d14ffda4f85fa505de4b34c4bfb383c",  # 23 singular
    "5c51e4ec67d915641712883180a6952ffd25f7bbe18d91484b2531f2ac9e37ef",  # 24 singular
    "29697fd1f1fdcb260c8ca6976ecc27fc2864f1699a5b1ba9f6698f1c8ec967c0",  # 25 quotient-char
    "29697fd1f1fdcb260c8ca6976ecc27fc2864f1699a5b1ba9f6698f1c8ec967c0",  # 26 quotient-char
    "2ad799e4ded48fa9b702977625ce77cf881b01836e32004a9929377cb292ac15",  # 27 dims
    "7cf64300657d12eeaa9d6590cff08811e6f8cc127e9abed3424cc61409f6ab43",  # 28 singular
    "ff89cb089e4870c98e9786dea05233e47c1e90a29237762eac125cc5fe4866d0",  # 29 demos
]


@pytest.mark.parametrize("argv,digest,summary",
                         [(a, d, s) for (a, d), s in zip(GOLDEN_STDOUT, GOLDEN_STDERR, strict=True)],
                         ids=[f"{i:02d}-{a[0]}" for i, (a, _) in enumerate(GOLDEN_STDOUT)])
def test_golden_stdout(argv, digest, summary):
    code, out, err = invoke(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert hashlib.sha256(err.encode()).hexdigest() == summary


# pyproject.toml declares requires-python >= 3.10; these reports must hash
# the same under every interpreter at hand
FLOOR_CASES = (0, 9, 12, 25)


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_golden_stdout_on_other_interpreters(name):
    interp = shutil.which(name)
    if interp is None or subprocess.run([interp, "-c", "pass"], capture_output=True).returncode:
        pytest.skip(f"{name} is not available")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"}
    for i in FLOOR_CASES:
        argv, digest = GOLDEN_STDOUT[i]
        proc = subprocess.run([interp, "-m", "toroidal_sl2", *argv], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv
        assert hashlib.sha256(proc.stderr).hexdigest() == GOLDEN_STDERR[i], argv


# generators hash by address, and strings by a per-process seed: no report
# may read either through the iteration order of a set
@pytest.mark.parametrize("argv", [
    ("singular", "--weight", W12, "--depth", "10", "--jobs", "1"),
    ("quotient-char", "--weight", W12, "--depth", "10", "--jobs", "2"),
    ("singular", "--weight", '{"h":"1/2","c1":"7/3","c2":"0","d1":"0","d2":"0"}',
     "--eta", "3,3"),
], ids=lambda argv: argv[0])
def test_reports_do_not_depend_on_the_hash_seed(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "toroidal_sl2", *argv],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


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


def test_zero_denominator_in_element_exits_two():
    code, out, err = invoke("bracket", "1/0*e(0,0)", "f(0,0)")
    assert (code, out) == (2, "")
    assert err == "error: element: zero denominator in scalar '1/0'\n"


def test_invalid_inputs_exit_two():
    code, _, err = invoke("singular", "--weight", W11, "--eta", "0;2")
    assert code == 2 and "eta" in err
    code, _, err = invoke("quotient-char", "--weight", WGEN, "--depth", "2")
    assert code == 2 and "weight field 'h'" in err
    # h = 1 is a nonnegative integer; c1 = 5/2 makes n0 = 3/2
    code, out, err = invoke("quotient-char", "--weight",
                            '{"h":"1","c1":"5/2","c2":"0","d1":"0","d2":"0"}')
    assert (code, out) == (2, "") and "weight field 'c1'" in err
    code, _, err = invoke("demos", "--weight", W00)
    assert code == 2 and "k1" in err
    code, _, err = invoke("reflect", "--weight", W11, "--beta", "0,1,0")
    assert code == 2 and "real" in err and "beta:" in err
    code, _, err = invoke("reflect", "--weight", W11, "--word", "r2")
    assert code == 2 and "word:" in err
    for field, value in [("nmax", "0"), ("nmax", "-3"), ("size", "0")]:
        code, out, err = invoke("demos", "--weight", W11, f"--{field}", value)
        assert code == 2 and out == ""
        assert f"{field}: must be >= 1, got {value}" in err


@pytest.mark.parametrize("command", [("singular", "--depth", "2"),
                                     ("singular", "--eta", "1,1"),
                                     ("quotient-char", "--depth", "2")])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_two(command, jobs, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    code, out, err = invoke(command[0], "--weight", W11, *command[1:], "--jobs", jobs)
    assert code == 2 and out == ""
    assert "jobs" in err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("command", [("singular", "--depth", "2"),
                                     ("quotient-char", "--depth", "2")])
@pytest.mark.parametrize("cpus,jobs,pool_size", [(2, "64", 2), (1, "8", None),
                                                 (4, "3", 3), (None, "2", None)])
def test_jobs_capped_at_cpu_count(command, cpus, jobs, pool_size, monkeypatch):
    # as on platforms that report no CPU affinity
    monkeypatch.delattr("toroidal_sl2.singular.os.sched_getaffinity", raising=False)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("toroidal_sl2.singular.os.cpu_count", lambda: cpus)
    _, serial, _ = invoke(command[0], "--weight", W11, *command[1:])
    code, out, _ = invoke(command[0], "--weight", W11, *command[1:], "--jobs", jobs)
    assert code == 0 and out == serial
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize("command", [("singular", "--depth", "2"),
                                     ("quotient-char", "--depth", "2")])
def test_jobs_capped_at_cpu_affinity(command, monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("toroidal_sl2.singular.os.cpu_count", lambda: 64)
    monkeypatch.setattr("toroidal_sl2.singular.os.sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    code, _, _ = invoke(command[0], "--weight", W11, *command[1:], "--jobs", "8")
    assert code == 0 and RecordingPool.sizes == [3]


# Each case breaks one internal check from outside the package; under
# ``python -O`` the check must still end the run with exit 1.
BROKEN_CHECKS = {
    "singular-eta": ("singular.SingularCertificate.verified = lambda self: False",
                     ("singular", "--weight", W11, "--eta", "0,2"), "annihilated"),
    "singular-depth": ("singular.SingularCertificate.verified = lambda self: False",
                       ("singular", "--weight", W11, "--depth", "2"), "annihilated"),
    "quotient-dim": ("quotient.dim_oracle = lambda eta: 0",
                     ("quotient-char", "--weight", W11, "--depth", "2"), "submodule"),
    "character-oracle": ("cli.w_multiplicity = lambda hw, eta: quotient.QuotientSpace(eta, 0, 0, 0)\n"
                         "quotient.dim_oracle = lambda eta: int(eta != (1, 1))",
                         ("quotient-char", "--weight", W11, "--depth", "2"), "negative"),
    "orbit-step": ("verma.HighestWeight.is_dominant_integral = lambda self: True",
                   ("singular", "--weight", '{"h":"-3","c1":"0","c2":"0","d1":"0","d2":"0"}',
                    "--depth", "2"), "does not raise the height"),
    "demo-pairing": ("quotient.module_for = lambda hw: verma.module_for(\n"
                     "    verma.HighestWeight(hw.n1, hw.k1 + 1, hw.d1, hw.d2))",
                     ("demos", "--weight", W11), "pairing"),
    "demo-off-line": ("_h = quotient.h\n"
                      "quotient.h = lambda n, m: singular.e(n, m) if m == 1 else _h(n, m)",
                      ("demos", "--weight", W11), "off the"),
    "scan-period": ("reducibility.lcm = lambda *a: 1",
                    ("reducible", "--weight", WGEN), "integrality period"),
    "empty-target": ("singular._RAISING_DROP[singular.e(0, 0)] = (0, 2)",
                     ("singular", "--weight", W11, "--eta", "0,1"), "target weight space is empty"),
    "weight-term": ("_m = singular._raising_matrices\n"
                    "singular._raising_matrices = lambda hw, pencil, ncols: _m(\n"
                    "    verma.HighestWeight(0, 0), pencil, ncols)",
                    ("singular", "--weight", W12, "--eta", "0,1"), "annihilated"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CHECKS))
def test_internal_checks_exit_one_under_optimize(case):
    patch, argv, message = BROKEN_CHECKS[case]
    script = ("import sys\nfrom fractions import Fraction\n"
              "from toroidal_sl2 import cli, quotient, reducibility, roots, singular, verma\n"
              f"{patch}\nsys.exit(cli.run(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "internal check failed" in proc.stderr and message in proc.stderr


# Run in one subprocess whose recursion limit is 100, far below the height
# of the deepest drops: h=0, c1=600 has its canonical singular vector
# e(-1,0)^601 v at (601, 0).
W0600 = '{"h":"0","c1":"600","c2":"0","d1":"0","d2":"0"}'
LOW_LIMIT_RUNS = [["singular", "--weight", W12, "--eta", "2000,0"],
                  ["singular", "--weight", W12, "--eta", "0,2000"],
                  ["singular", "--weight", W0600, "--eta", "601,0"],
                  ["singular", "--weight", W12, "--depth", "12"],
                  ["quotient-char", "--weight", W12, "--depth", "12"]]


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_reports_do_not_depend_on_the_recursion_limit(flags):
    # bases and powers of a letter are built in loops, so neither the height
    # of a drop nor an exponent costs a Python frame; pytest's own frames
    # would take part of the headroom in process
    script = ("import io, json, sys\nsys.setrecursionlimit(100)\n"
              "from toroidal_sl2.cli import run\n"
              "outs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out = io.StringIO()\n"
              "    outs.append([run(argv, out=out, err=io.StringIO()), out.getvalue()])\n"
              "print(json.dumps(outs))\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script, json.dumps(LOW_LIMIT_RUNS)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    outs = json.loads(proc.stdout)
    assert [code for code, _ in outs] == [0] * len(LOW_LIMIT_RUNS)
    deep = [json.loads(text)["result"] for _, text in outs[:3]]
    assert [r["weight_space_dim"] for r in deep] == [1, 1, 1]
    assert [r["kernel_dim"] for r in deep] == [0, 0, 1]
    checks = deep[2]["raising_checks"]
    assert len(checks) == 2 and all(c["annihilated"] for c in checks)
    # the scans print what they print at the default limit
    for argv, (_, text) in zip(LOW_LIMIT_RUNS[3:], outs[3:]):
        assert invoke(*argv)[1] == text


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("eta", ["450,0", "0,450"])
def test_deep_one_dimensional_drop_fits_the_recursion_limit(eta, flags):
    # e(-1,0)^450 v and f(0,0)^450 v through the module's entry point at the
    # default limit, in a subprocess where pytest's own frames take none of
    # the headroom
    proc = subprocess.run([sys.executable, *flags, "-m", "toroidal_sl2", "singular",
                           "--weight", W12, "--eta", eta], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["kernel_dim"] == 0


def test_package_has_no_bare_asserts():
    # ``python -O`` strips assert statements, so every check in the package
    # must raise explicitly
    package = resources.files("toroidal_sl2")
    found = []
    for path in sorted(package.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".py"):
            tree = ast.parse(path.read_text(), filename=path.name)
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_quietly():
    # the reader has closed the pipe before the report is written, as a
    # ``| head -1`` that has its line does; the run ends as cat would
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed:
        proc = subprocess.run([sys.executable, "-m", "toroidal_sl2", "dims", "--depth", "12"],
                              stdout=closed, stderr=subprocess.PIPE, text=True)
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert proc.returncode == -signal.SIGPIPE


def test_one_job_never_imports_the_process_pool():
    # nor csv, which only --format csv uses
    script = ("import sys\nfrom toroidal_sl2 import cli\n"
              "assert cli.run(sys.argv[1:]) == 0\n"
              "assert 'concurrent.futures.process' not in sys.modules\n"
              "assert 'csv' not in sys.modules\n")
    for argv in (("singular", "--weight", W11, "--depth", "2"),
                 ("quotient-char", "--weight", W11, "--depth", "2", "--jobs", "1")):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_jobs_are_capped_by_cpu_affinity():
    # pinned to one processor, --jobs 4 runs in this process, whatever
    # os.cpu_count() says of the machine
    script = ("import os, sys\nos.sched_getaffinity = lambda pid: {0}\n"
              "from toroidal_sl2 import cli\n"
              "assert cli.run(sys.argv[1:]) == 0\n"
              "assert 'concurrent.futures.process' not in sys.modules\n")
    argv = ("singular", "--weight", W11, "--depth", "2", "--jobs", "4")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_never_loads_dataclasses_or_inspect():
    # the records are tuples or plain classes: dataclasses and the inspect
    # it pulls in would cost every process about 14 ms to import
    script = ("import sys\nimport toroidal_sl2\nfrom toroidal_sl2 import cli\n"
              "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
              "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- argv fuzz: every input exits 0 or 2, and a report is valid and stable ----

_FIELDS = ("h", "c1", "c2", "d1", "d2")
_VALID = st.one_of(st.integers(0, 3).map(str),
                   st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)))
_MALFORMED = st.one_of(st.integers(-3, 3).map(lambda p: f"{p}/0"),
                       st.sampled_from(["x", "1.5", "", "1/", "2/-3", "-1"]),
                       st.integers(-2, 2), st.just(1.5), st.none())


@st.composite
def _weight(draw):
    fields = {name: draw(_VALID) for name in _FIELDS}
    fields["c1"] = draw(st.one_of(st.integers(1, 3).map(str), _VALID))
    fields["c2"] = "0"
    change = draw(st.sampled_from(["none"] * 6 + ["field", "drop", "extra", "text"]))
    if change == "field":
        fields[draw(st.sampled_from(_FIELDS))] = draw(_MALFORMED)
    elif change == "drop":
        del fields[draw(st.sampled_from(_FIELDS))]
    elif change == "extra":
        fields["k"] = "0"
    elif change == "text":
        return draw(st.sampled_from(["not json", "[]", "{", "1", '{"h": }']))
    return json.dumps(fields)


_INT = st.integers(-1, 3).map(str)
_COUNT = st.one_of(st.integers(1, 3).map(str), _INT)


def _ints(count):
    return st.one_of(st.lists(_INT, min_size=count, max_size=count).map(",".join),
                     st.lists(_INT, max_size=4).map(",".join),
                     st.sampled_from(["a,b", "1;2", "1,,2", "0x1,0,0"]))


_ELEMENT = st.one_of(
    st.lists(st.sampled_from(["e(1,0)", "f(-1,0)", "h(0,1)", "h(0,-1)", "c1", "d2",
                              "1/0*e(0,0)", "2/3*f(0,0)", "0*e(0,0)", "-h(1,0)"]),
             min_size=1, max_size=3).map(" + ".join),
    st.text(alphabet="efhcd01(),+-*/ ", max_size=12))
_WORD = st.lists(st.sampled_from(["r0", "r1", "r1", "r2", ""]), max_size=4).map(",".join)
_FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--format", "x"]])


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


_WEIGHT = _opt("--weight", _weight())
_ARGV = st.one_of(
    st.tuples(st.just(["bracket"]), st.one_of(st.tuples(_ELEMENT, _ELEMENT).map(list),
                                               st.lists(_ELEMENT, max_size=3))),
    st.tuples(st.just(["roots"]), st.one_of(_opt("--root", _ints(3)), _opt("--box", _INT))),
    st.tuples(st.just(["reflect"]), _WEIGHT,
              st.one_of(_opt("--beta", _ints(3)), _opt("--word", _WORD))),
    st.tuples(st.just(["dims"]), _opt("--depth", _INT), _FORMAT),
    st.tuples(st.just(["singular", "--jobs", "1"]), _WEIGHT,
              st.one_of(_opt("--eta", _ints(2)), _opt("--depth", _INT))),
    st.tuples(st.just(["reducible"]), _WEIGHT,
              st.one_of(st.just([]), _opt("--kmax", _INT))),
    st.tuples(st.just(["quotient-char", "--jobs", "1"]), _WEIGHT,
              _opt("--depth", _INT), _FORMAT),
    st.tuples(st.just(["demos"]), _WEIGHT, _opt("--nmax", _COUNT), _opt("--size", _COUNT)),
    # argv that argparse itself rejects
    st.tuples(st.sampled_from([[], ["nope"], ["singular"], ["reflect", "--weight", W11],
                               ["dims", "--depth", "x"], ["roots", "--box"]])),
).map(lambda parts: [arg for part in parts for arg in part])


def _run_or_exit(argv):
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage text
            return invoke(*argv)
    except SystemExit as exc:  # argparse rejects the argv itself
        return exc.code, None, None


@settings(max_examples=250)
@given(argv=_ARGV)
@example(argv=["bracket", "1/0*e(0,0)", "f(0,0)"])
def test_argv_fuzz_exits_zero_or_two(argv, schema):
    code, out, _ = _run_or_exit(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert not out
        return
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1
    else:
        jsonschema.validate(json.loads(out), schema)
    assert invoke(*argv)[1] == out
