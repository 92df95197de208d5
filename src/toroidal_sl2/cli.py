"""Command line interface.

Every command prints a machine-readable report (JSON, or CSV for the
table commands with ``--format csv``) on standard output and a one-line
human summary on standard error.  Reports are byte-stable for identical
inputs: they echo the parsed input, pin the library version, and contain
no timestamps.  Exit codes: 0 success, 2 invalid input, 1 internal error.

Rationals serialize as strings ``p/q`` (lowest terms, positive
denominator; a bare integer stands for denominator 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional, Sequence

from . import __version__
from .algebra import bracket, format_element, parse_element, basis_sort_key
from .quotient import (demo_infinite_dim, demo_nonintegrability, lchar_oracle,
                       w_multiplicity)
from .reducibility import kk_pairs, sufficient_kmax
from .roots import (RootVector, Weight, classify, dot_action, is_positive,
                    reflect, roots_in_box, NOT_ROOT)
from .singular import SingularCertificate, find_singular, orbit_report, scan_drops
from .verma import HighestWeight, dim_oracle, module_for


class CliInputError(ValueError):
    pass


def _parse_weight(text: str) -> tuple[Weight, HighestWeight]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"weight: not valid JSON ({exc.msg})") from None
    try:
        w = Weight.from_json(obj)
        return w, HighestWeight.from_weight(w)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def _parse_ints(text: str, what: str, count: int, shape: str) -> tuple[int, ...]:
    """``count`` comma-separated integers; ``shape`` describes them in errors."""
    parts = text.split(",")
    if len(parts) != count:
        raise CliInputError(f"{what}: expected {shape}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise CliInputError(f"{what}: expected integers, got {text!r}") from None


def _envelope(command: str, inputs: dict, result: dict) -> dict:
    return {"command": command, "version": __version__, "input": inputs, "result": result}


def _emit_json(doc: dict, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence], out) -> None:
    import csv  # JSON runs never pay for it
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# -- per-command runners ------------------------------------------------------


def _run_bracket(args, out, err) -> int:
    try:
        a = parse_element(args.a)
        b = parse_element(args.b)
    except ValueError as exc:
        raise CliInputError(f"element: {exc}") from None
    result = bracket(a, b)
    terms = [{"basis": repr(bx), "coeff": str(c)}
             for bx, c in sorted(result.terms.items(), key=lambda t: basis_sort_key(t[0]))]
    doc = _envelope("bracket", {"a": args.a, "b": args.b}, {"terms": terms})
    _emit_json(doc, out)
    print(f"[{args.a}, {args.b}] = {format_element(result)}", file=err)
    return 0


def _run_roots(args, out, err) -> int:
    if args.root is not None:
        r = RootVector(*_parse_ints(args.root, "root", 3, "'a,n1,n2'"))
        cls = classify(r)
        pos = is_positive(r) if cls != NOT_ROOT else None
        doc = _envelope("roots", {"root": r.to_json()},
                        {"class": cls, "positive": pos})
        _emit_json(doc, out)
        print(f"{r!r}: {cls}" + (f", positive={pos}" if pos is not None else ""), file=err)
        return 0
    if args.box < 0:
        raise CliInputError(f"box: must be >= 0, got {args.box}")
    listing = []
    ok = True
    for r in roots_in_box(args.box):
        pos = is_positive(r)
        ok = ok and (pos != is_positive(-r))
        listing.append({**r.to_json(), "class": classify(r), "positive": pos})
    doc = _envelope("roots", {"box": args.box},
                    {"count": len(listing), "partition_ok": ok, "roots": listing})
    _emit_json(doc, out)
    print(f"{len(listing)} roots in box {args.box}, partition_ok={ok}", file=err)
    return 0


def _run_reflect(args, out, err) -> int:
    w, _ = _parse_weight(args.weight)
    if args.beta is not None:
        beta = RootVector(*_parse_ints(args.beta, "beta", 3, "'a,n1,n2'"))
        try:
            image = reflect(beta, w)
        except ValueError as exc:
            raise CliInputError(f"beta: {exc}") from None
        inputs = {"weight": w.to_json(), "beta": beta.to_json()}
    else:
        word = [g.strip() for g in args.word.split(",") if g.strip()]
        try:
            image = dot_action(word, w)
        except ValueError as exc:
            raise CliInputError(f"word: {exc}") from None
        inputs = {"weight": w.to_json(), "word": word}
    doc = _envelope("reflect", inputs, {"weight": image.to_json()})
    _emit_json(doc, out)
    print(f"image: {image.to_json()}", file=err)
    return 0


def _run_dims(args, out, err) -> int:
    if args.depth < 0:
        raise CliInputError(f"depth: must be >= 0, got {args.depth}")
    engine = module_for(HighestWeight(0, 0))
    rows = []
    for eta in scan_drops(0, args.depth):
        dim = dim_oracle(eta)
        pbw = len(engine.weight_space_basis(eta))
        rows.append({"eta": list(eta), "dim": dim, "pbw": pbw, "match": dim == pbw})
    if args.format == "csv":
        _emit_csv(["eta", "dim", "pbw", "match"],
                  [[f"{r['eta'][0]},{r['eta'][1]}", r["dim"], r["pbw"],
                    str(r["match"]).lower()] for r in rows], out)
    else:
        _emit_json(_envelope("dims", {"depth": args.depth}, {"rows": rows}), out)
    print(f"{len(rows)} weight spaces up to depth {args.depth}; "
          f"all_match={all(r['match'] for r in rows)}", file=err)
    return 0


def _checked(cert: SingularCertificate) -> SingularCertificate:
    if not cert.verified():
        raise AssertionError(f"a kernel vector at eta {cert.eta} is not "
                             "annihilated by the raising operators")
    return cert


def _kernel_dim(hw: HighestWeight, eta: tuple[int, int]) -> int:
    return _checked(find_singular(hw, eta)).kernel_dim


def _quotient_row(hw: HighestWeight, eta: tuple[int, int]) -> dict:
    q = w_multiplicity(hw, eta)
    return {"eta": list(eta), "ambient": q.ambient_dim, "submodule": q.submodule_dim,
            "quotient": q.quotient_dim, "l_oracle": lchar_oracle(hw, eta)}


def _map_etas(job: Callable, hw: HighestWeight, etas: list[tuple[int, int]],
              jobs: int) -> list:
    """[job(hw, eta) for eta in etas], on at most ``jobs`` processes.

    The pool never has more workers than the machine has processors; with
    one worker the jobs run in this process.
    """
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        return [job(hw, eta) for eta in etas]
    from concurrent.futures import ProcessPoolExecutor  # --jobs 1 never pays for it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, [hw] * len(etas), etas))


def _run_singular(args, out, err) -> int:
    w, hw = _parse_weight(args.weight)
    if args.jobs < 1:
        raise CliInputError(f"jobs: must be >= 1, got {args.jobs}")
    if args.eta is not None:
        eta = _parse_ints(args.eta, "eta", 2, "two comma-separated integers")
        if eta[0] < 0 or eta[1] < 0:
            raise CliInputError(f"eta: coordinates must be >= 0, got {eta}")
        cert = _checked(find_singular(hw, eta))
        doc = _envelope("singular", {"weight": w.to_json(), "eta": list(eta)},
                        cert.to_json())
        _emit_json(doc, out)
        print(f"eta={eta}: kernel dimension {cert.kernel_dim} "
              f"in a {cert.basis_dim}-dimensional weight space", file=err)
        return 0

    if args.depth is None:
        args.depth = 8
    if args.depth < 1:
        raise CliInputError(f"depth: must be >= 1, got {args.depth}")
    etas = scan_drops(1, args.depth)
    found = {eta: dim for eta, dim in zip(etas, _map_etas(_kernel_dim, hw, etas, args.jobs))
             if dim}
    doc = _envelope("singular", {"weight": w.to_json(), "depth": args.depth},
                    orbit_report(hw, args.depth, found).to_json())
    _emit_json(doc, out)
    print(f"depth {args.depth}: singular weights at {sorted(found)}", file=err)
    return 0


def _run_reducible(args, out, err) -> int:
    w, hw = _parse_weight(args.weight)
    if args.kmax is not None and args.kmax < 0:
        raise CliInputError(f"kmax: must be >= 0, got {args.kmax}")
    bound = sufficient_kmax(hw) if args.kmax is None else args.kmax
    witnesses = kk_pairs(hw, bound)
    exhaustive = bound >= sufficient_kmax(hw)
    # below the decision bound, finding no witness proves nothing
    verdict = bool(witnesses) if exhaustive else (bool(witnesses) or None)
    result = {"reducible": verdict, "witnesses": [p.to_json() for p in witnesses],
              "scan_bound": bound, "exhaustive": exhaustive}
    doc = _envelope("reducible", {"weight": w.to_json(), "kmax": args.kmax}, result)
    _emit_json(doc, out)
    shown = "unknown (bound not exhaustive)" if verdict is None else verdict
    print(f"reducible: {shown} ({len(witnesses)} witnesses, bound {bound})", file=err)
    return 0


def _run_quotient_char(args, out, err) -> int:
    w, hw = _parse_weight(args.weight)
    if not hw.is_dominant_integral():
        raise CliInputError("weight field 'h': quotient-char requires n1 and "
                            f"k1 - n1 to be nonnegative integers (n1={hw.n1}, n0={hw.n0})")
    if args.depth < 0:
        raise CliInputError(f"depth: must be >= 0, got {args.depth}")
    if args.jobs < 1:
        raise CliInputError(f"jobs: must be >= 1, got {args.jobs}")
    rows = _map_etas(_quotient_row, hw, scan_drops(0, args.depth), args.jobs)
    if args.format == "csv":
        _emit_csv(["eta", "ambient", "submodule", "quotient", "l_oracle"],
                  [[f"{r['eta'][0]},{r['eta'][1]}", r["ambient"], r["submodule"],
                    r["quotient"], r["l_oracle"]] for r in rows], out)
    else:
        doc = _envelope("quotient-char",
                        {"weight": w.to_json(), "depth": args.depth}, {"rows": rows})
        _emit_json(doc, out)
    mism = sum(1 for r in rows if r["quotient"] != r["l_oracle"])
    print(f"{len(rows)} weights up to depth {args.depth}; "
          f"{mism} quotient/oracle mismatches", file=err)
    return 0


def _run_demos(args, out, err) -> int:
    w, hw = _parse_weight(args.weight)
    if hw.k1 <= 0:
        raise CliInputError(f"weight field 'c1': demos require k1 > 0, got {hw.k1}")
    for field, value in (("nmax", args.nmax), ("size", args.size)):
        if value < 1:
            raise CliInputError(f"{field}: must be >= 1, got {value}")
    transcript = demo_nonintegrability(hw, args.nmax)
    report = demo_infinite_dim(hw, args.size)
    result = {"nonintegrability": transcript.to_json(),
              "infinite_dim": report.to_json()}
    doc = _envelope("demos", {"weight": w.to_json(), "nmax": args.nmax,
                              "size": args.size}, result)
    _emit_json(doc, out)
    print(f"nonintegrability checks hold: {transcript.all_hold()}; "
          f"pairing rank {report.rank}/{report.size}", file=err)
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toroidal-sl2",
        description="Exact computations in Verma modules over the double affine sl2 algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two elements")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("roots", help="classify roots / check the positive partition")
    p.add_argument("--root", help="single root as 'a,n1,n2'")
    p.add_argument("--box", type=int, default=3, help="list roots with |n1|,|n2| <= BOX")

    p = sub.add_parser("reflect", help="real-root reflection or shifted Weyl word")
    p.add_argument("--weight", required=True, help="weight as JSON")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--beta", help="real root 'a,n1,n2' for a plain reflection")
    grp.add_argument("--word", help="comma-separated word over r0,r1 for the dot action")

    p = sub.add_parser("dims", help="weight-space dimension table")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("singular", help="singular vectors at one weight or a scan")
    p.add_argument("--weight", required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--eta", help="weight drop as 'a0,a1'")
    grp.add_argument("--depth", type=int,
                     help="scan all drops with a0+a1 <= DEPTH (default 8)")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("reducible", help="exact reducibility decision")
    p.add_argument("--weight", required=True)
    p.add_argument("--kmax", type=int, help="exploration bound override")

    p = sub.add_parser("quotient-char", help="quotient multiplicities vs character oracle")
    p.add_argument("--weight", required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("demos", help="nonintegrability and infinite-dimensionality demos")
    p.add_argument("--weight", required=True)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--size", type=int, default=5)
    return parser


_RUNNERS = {
    "bracket": _run_bracket,
    "roots": _run_roots,
    "reflect": _run_reflect,
    "dims": _run_dims,
    "singular": _run_singular,
    "reducible": _run_reducible,
    "quotient-char": _run_quotient_char,
    "demos": _run_demos,
}


def run(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args, out, err)
    except CliInputError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
