"""One run of one workload, in a fresh process with empty engine caches.

Reads a JSON spec on standard input and prints one JSON result line on
standard output.  The requests are issued one after another (a closed loop
with one client) through the public functions the CLI runners call, and
every answer is serialized with ``to_json`` + ``json.dumps`` as the CLI
does.  After the timed phase each answer is checked with the package's own
independent routes, optionally compared with the CLI's report for the same
command, and digested.

The spec holds ``src`` (the directory to import the package from),
``workload``, ``inputs`` (from ``workloads.make_inputs``), ``trace``,
``parity``, ``wrong_reference`` (make the first request's reference answer
wrong, to show that failures are counted) and ``spans_path``.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _etas(low: int, depth: int) -> list[tuple[int, int]]:
    """Drops (a0, a1) with low <= a0 + a1 <= depth, in CLI scan order."""
    return [(a0, total - a0) for total in range(low, depth + 1) for a0 in range(total + 1)]


def _parse_weight(pkg, obj: dict):
    """The CLI's weight parsing: JSON object -> Weight -> HighestWeight."""
    return pkg.verma.HighestWeight.from_weight(pkg.roots.Weight.from_json(obj))


def _cli_result(argv: list[str]) -> dict:
    from toroidal_sl2 import cli
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    if code != 0:
        raise RuntimeError(f"CLI {argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())["result"]


class Scan:
    """``singular --depth``: a kernel at every drop of height 1..depth, one engine."""

    def __init__(self, pkg, inputs: dict):
        self.pkg = pkg
        self.weight = inputs["weights"][0]
        self.hw = _parse_weight(pkg, self.weight)
        self.depth = inputs["depth"]
        self.requests = _etas(1, self.depth)

    def run(self, eta, span):
        cert = self.pkg.singular.find_singular(self.hw, eta)
        with span("cli.serialize"):
            text = json.dumps(cert.to_json(), indent=2)
        return cert, text

    def check(self, answers, wrong_first: bool) -> dict[int, str]:
        # for dominant integral weights the raising kernel is nonzero
        # exactly on the shifted Weyl orbit
        orbit = set(self.pkg.singular.dot_orbit_etas(self.hw, self.depth))
        bad = {}
        for i, (eta, cert) in enumerate(zip(self.requests, answers)):
            if cert is None:
                continue
            on_orbit = (eta in orbit) != (wrong_first and i == 0)
            if not cert.verified():
                bad[i] = f"eta {eta}: a kernel vector is not killed by the raising actions"
            elif (cert.kernel_dim > 0) != on_orbit:
                bad[i] = f"eta {eta}: kernel dimension {cert.kernel_dim}, on the dot orbit: {on_orbit}"
        return bad

    def parity(self, answers) -> dict[int, str]:
        result = _cli_result(["singular", "--weight", json.dumps(self.weight),
                              "--depth", str(self.depth)])
        found = {tuple(r["eta"]): r["kernel_dim"] for r in result["singular"]}
        return {i: f"eta {eta}: CLI kernel dimension {found.get(eta, 0)}, here {cert.kernel_dim}"
                for i, (eta, cert) in enumerate(zip(self.requests, answers))
                if cert is not None and found.get(eta, 0) != cert.kernel_dim}


class Quotient:
    """``quotient-char --depth``: quotient multiplicity and character oracle per drop."""

    def __init__(self, pkg, inputs: dict):
        self.pkg = pkg
        self.weight = inputs["weights"][0]
        self.hw = _parse_weight(pkg, self.weight)
        self.depth = inputs["depth"]
        self.requests = _etas(0, self.depth)

    def run(self, eta, span):
        q = self.pkg.quotient.w_multiplicity(self.hw, eta)
        row = {"eta": list(eta), "ambient": q.ambient_dim, "submodule": q.submodule_dim,
               "quotient": q.quotient_dim, "l_oracle": self.pkg.quotient.lchar_oracle(self.hw, eta)}
        with span("cli.serialize"):
            text = json.dumps(row, indent=2)
        return row, text

    def check(self, answers, wrong_first: bool) -> dict[int, str]:
        engine = self.pkg.verma.module_for(self.hw)
        bad = {}
        for i, (eta, row) in enumerate(zip(self.requests, answers)):
            if row is None:
                continue
            oracle = row["l_oracle"] + (wrong_first and i == 0)
            pbw = len(engine.weight_space_basis(eta))
            if row["quotient"] != oracle:
                bad[i] = f"eta {eta}: quotient dimension {row['quotient']}, character oracle {oracle}"
            elif pbw != row["ambient"]:
                bad[i] = f"eta {eta}: PBW basis {pbw}, partition oracle {row['ambient']}"
        return bad

    def parity(self, answers) -> dict[int, str]:
        rows = _cli_result(["quotient-char", "--weight", json.dumps(self.weight),
                            "--depth", str(self.depth)])["rows"]
        return {i: f"eta {eta}: CLI row differs" for i, (eta, row, cli_row)
                in enumerate(zip(self.requests, answers, rows)) if row is not None and row != cli_row}


class Weights:
    """A reducibility decision and one kernel per distinct rational weight."""

    def __init__(self, pkg, inputs: dict):
        self.pkg = pkg
        self.weights = inputs["weights"]
        self.requests = [_parse_weight(pkg, w) for w in self.weights]
        self.witness_height = inputs["witness_height"]
        self.probe = tuple(inputs["probe"])

    def _witness_eta(self, report):
        for p in report.witnesses:
            eta = self.pkg.roots.q1_coords(p.l * p.beta)
            if sum(eta) <= self.witness_height:
                return eta
        return None

    def run(self, hw, span):
        report = self.pkg.reducibility.is_reducible(hw)
        eta = self._witness_eta(report) or self.probe
        cert = self.pkg.singular.find_singular(hw, eta)
        with span("cli.serialize"):
            text = json.dumps({"reducible": report.to_json(), "singular": cert.to_json()},
                              indent=2)
        return (report, cert), text

    def check(self, answers, wrong_first: bool) -> dict[int, str]:
        bad = {}
        for i, answer in enumerate(answers):
            if answer is None:
                continue
            report, cert = answer
            # a witness in range has a singular vector at its drop; an
            # irreducible module has none anywhere
            if self._witness_eta(report) is not None:
                expect = True
            elif not report.verdict:
                expect = False
            else:
                expect = None
            if wrong_first and i == 0:
                expect = cert.kernel_dim == 0
            if not cert.verified():
                bad[i] = f"weight {i}: a kernel vector is not killed by the raising actions"
            elif expect is not None and (cert.kernel_dim > 0) != expect:
                bad[i] = (f"weight {i}: reducible={report.verdict}, kernel dimension "
                          f"{cert.kernel_dim} at eta {cert.eta}")
        return bad

    def parity(self, answers) -> dict[int, str]:
        if answers[0] is None:
            return {}
        report, cert = answers[0]
        weight = json.dumps(self.weights[0])
        reducible = _cli_result(["reducible", "--weight", weight])
        singular = _cli_result(["singular", "--weight", weight,
                                "--eta", f"{cert.eta[0]},{cert.eta[1]}"])
        if reducible != {**report.to_json(), "exhaustive": True} or singular != cert.to_json():
            return {0: "weight 0: CLI reducible/singular reports differ"}
        return {}


class Dims:
    """``dims --depth``: PBW basis size against the partition oracle per drop."""

    def __init__(self, pkg, inputs: dict):
        self.pkg = pkg
        self.depth = inputs["depth"]
        self.engine = pkg.verma.module_for(pkg.verma.HighestWeight(0, 0))
        self.requests = _etas(0, self.depth)

    def run(self, eta, span):
        dim = self.pkg.verma.dim_oracle(eta)
        pbw = len(self.engine.weight_space_basis(eta))
        row = {"eta": list(eta), "dim": dim, "pbw": pbw, "match": dim == pbw}
        with span("cli.serialize"):
            text = json.dumps(row, indent=2)
        return row, text

    def check(self, answers, wrong_first: bool) -> dict[int, str]:
        bad = {}
        for i, (eta, row) in enumerate(zip(self.requests, answers)):
            if row is None:
                continue
            oracle = row["dim"] + (wrong_first and i == 0)
            if row["pbw"] != oracle:
                bad[i] = f"eta {eta}: PBW basis {row['pbw']}, partition oracle {oracle}"
        return bad

    def parity(self, answers) -> dict[int, str]:
        rows = _cli_result(["dims", "--depth", str(self.depth)])["rows"]
        return {i: f"eta {eta}: CLI row differs" for i, (eta, row, cli_row)
                in enumerate(zip(self.requests, answers, rows)) if row is not None and row != cli_row}


WORKLOADS = {"scan": Scan, "quotient": Quotient, "weights": Weights, "dims": Dims}


def _no_span(name: str):
    return nullcontext()


def main() -> int:
    spec = json.load(sys.stdin)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import toroidal_sl2 as pkg
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        print(f"toroidal_sl2 was imported from {pkg.__file__}, not from {src}", file=sys.stderr)
        return 3
    work = WORKLOADS[spec["workload"]](pkg, spec["inputs"])
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer, pkg)
    span = tracer.span if tracer else _no_span

    answers, texts, latencies = [], [], []
    failures: dict[int, list[str]] = {}
    start = time.perf_counter()
    for i, req in enumerate(work.requests):
        t = time.perf_counter()
        if tracer:
            tracer.request = i
        try:
            with span("bench.request"):
                answer, text = work.run(req, span)
        except Exception as exc:  # a failed request is counted, and the loop goes on
            answer, text = None, None
            failures[i] = [f"request {i} raised {type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t)
        answers.append(answer)
        texts.append(text)
    wall = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer:
        layers = tracer.layers()
        engines = pkg.verma._ENGINES.values()
        layers["verma.engines"] = len(engines)
        layers["verma.cache_entries"] = sum(len(e._cache) for e in engines)

    # failed requests have no answer; the checks skip them
    stages = ("check", "parity") if spec["parity"] else ("check",)
    for stage in stages:
        try:
            bad = (work.check(answers, spec["wrong_reference"]) if stage == "check"
                   else work.parity(answers))
        except Exception as exc:  # a broken check fails every request, visibly
            bad = {i: f"{stage} raised {type(exc).__name__}: {exc}" for i in range(len(answers))}
        for i, msg in bad.items():
            failures.setdefault(i, []).append(msg)

    if tracer and spec.get("spans_path"):
        tracer.dump(spec["spans_path"])
    digests = [hashlib.sha256(t.encode()).hexdigest()[:16] if t is not None else None
               for t in texts]
    print(json.dumps({"ready": ready, "wall_s": wall, "latencies": latencies,
                      "maxrss_kb": maxrss_kb, "requests": len(work.requests),
                      "failures": failures, "digests": digests, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
