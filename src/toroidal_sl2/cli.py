"""Command line interface.

Every command prints a machine-readable report (JSON, or CSV for the
table commands with ``--format csv``) on standard output and a one-line
human summary on standard error.  Reports are byte-stable for identical
inputs: they echo the parsed input, pin the library version, and contain
no timestamps.  Exit codes: 0 success, 2 invalid input, 1 internal error.
The runners only compute; ``run`` writes the report once a runner has
returned, so on exit 1 or 2 standard output stays empty.

Rationals serialize as strings ``p/q`` (lowest terms, positive
denominator; a bare integer stands for denominator 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .algebra import bracket, format_element, parse_element, basis_sort_key
from .quotient import (demo_infinite_dim, demo_nonintegrability, lchar_oracle,
                       w_multiplicity)
from .reducibility import ReducibilityReport, kk_pairs, sufficient_kmax
from .roots import (RootVector, Weight, classify, dot_action, is_positive,
                    reflect, roots_in_box, NOT_ROOT)
from .singular import _map_etas, find_singular, orbit_report, scan_drops, scan_weights
from .verma import HighestWeight, dim_oracle, weight_free_engine


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


def _at_least(field: str, value: int, low: int) -> None:
    if value < low:
        raise CliInputError(f"{field}: must be >= {low}, got {value}")


def _csv_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):  # eta as "a0,a1"
        return ",".join(map(str, value))
    return value


# -- per-command runners ------------------------------------------------------
#
# Each runner validates its arguments, calls the library and returns
# (input echo, result, one-line summary).

Report = tuple[dict, dict, str]


def _run_bracket(args) -> Report:
    try:
        a = parse_element(args.a)
        b = parse_element(args.b)
    except ValueError as exc:
        raise CliInputError(f"element: {exc}") from None
    result = bracket(a, b)
    terms = [{"basis": repr(bx), "coeff": str(c)}
             for bx, c in sorted(result.terms.items(), key=lambda t: basis_sort_key(t[0]))]
    return ({"a": args.a, "b": args.b}, {"terms": terms},
            f"[{args.a}, {args.b}] = {format_element(result)}")


def _run_roots(args) -> Report:
    if args.root is not None:
        r = RootVector(*_parse_ints(args.root, "root", 3, "'a,n1,n2'"))
        cls = classify(r)
        pos = is_positive(r) if cls != NOT_ROOT else None
        return ({"root": r.to_json()}, {"class": cls, "positive": pos},
                f"{r!r}: {cls}" + (f", positive={pos}" if pos is not None else ""))
    _at_least("box", args.box, 0)
    listing = []
    ok = True
    for r in roots_in_box(args.box):
        pos = is_positive(r)
        ok = ok and (pos != is_positive(-r))
        listing.append({**r.to_json(), "class": classify(r), "positive": pos})
    return ({"box": args.box},
            {"count": len(listing), "partition_ok": ok, "roots": listing},
            f"{len(listing)} roots in box {args.box}, partition_ok={ok}")


def _run_reflect(args) -> Report:
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
    return inputs, {"weight": image.to_json()}, f"image: {image.to_json()}"


def _run_dims(args) -> Report:
    _at_least("depth", args.depth, 0)
    rows = []
    for eta in scan_drops(0, args.depth):
        dim = dim_oracle(eta)
        pbw = len(weight_free_engine().weight_space_basis(eta))
        rows.append({"eta": list(eta), "dim": dim, "pbw": pbw, "match": dim == pbw})
    return ({"depth": args.depth}, {"rows": rows},
            f"{len(rows)} weight spaces up to depth {args.depth}; "
            f"all_match={all(r['match'] for r in rows)}")


def _quotient_row(hw: HighestWeight, eta: tuple[int, int]) -> dict:
    q = w_multiplicity(hw, eta)
    return {"eta": list(eta), "ambient": q.ambient_dim, "submodule": q.submodule_dim,
            "quotient": q.quotient_dim, "l_oracle": lchar_oracle(hw, eta)}


def _run_singular(args) -> Report:
    w, hw = _parse_weight(args.weight)
    _at_least("jobs", args.jobs, 1)
    if args.eta is not None:
        eta = _parse_ints(args.eta, "eta", 2, "two comma-separated integers")
        if eta[0] < 0 or eta[1] < 0:
            raise CliInputError(f"eta: coordinates must be >= 0, got {eta}")
        cert = find_singular(hw, eta)
        return ({"weight": w.to_json(), "eta": list(eta)}, cert.to_json(),
                f"eta={eta}: kernel dimension {cert.kernel_dim} "
                f"in a {cert.basis_dim}-dimensional weight space")
    _at_least("depth", args.depth, 1)
    found = scan_weights(hw, args.depth, args.jobs)
    return ({"weight": w.to_json(), "depth": args.depth},
            orbit_report(hw, args.depth, found).to_json(),
            f"depth {args.depth}: singular weights at {sorted(found)}")


def _run_reducible(args) -> Report:
    w, hw = _parse_weight(args.weight)
    if args.kmax is not None:
        _at_least("kmax", args.kmax, 0)
    bound = sufficient_kmax(hw) if args.kmax is None else args.kmax
    witnesses = kk_pairs(hw, bound)
    exhaustive = bound >= sufficient_kmax(hw)
    # below the decision bound, finding no witness proves nothing
    verdict = bool(witnesses) if exhaustive else (bool(witnesses) or None)
    result = {**ReducibilityReport(verdict, tuple(witnesses), bound).to_json(),
              "exhaustive": exhaustive}
    shown = "unknown (bound not exhaustive)" if verdict is None else verdict
    return ({"weight": w.to_json(), "kmax": args.kmax}, result,
            f"reducible: {shown} ({len(witnesses)} witnesses, bound {bound})")


def _run_quotient_char(args) -> Report:
    w, hw = _parse_weight(args.weight)
    if not hw.is_dominant_integral():
        field = "c1" if hw.n1.denominator == 1 and hw.n1 >= 0 else "h"
        raise CliInputError(f"weight field '{field}': quotient-char requires n1 and "
                            f"k1 - n1 to be nonnegative integers (n1={hw.n1}, n0={hw.n0})")
    _at_least("depth", args.depth, 0)
    _at_least("jobs", args.jobs, 1)
    rows = _map_etas(_quotient_row, hw, scan_drops(0, args.depth), args.jobs)
    mism = sum(1 for r in rows if r["quotient"] != r["l_oracle"])
    return ({"weight": w.to_json(), "depth": args.depth}, {"rows": rows},
            f"{len(rows)} weights up to depth {args.depth}; "
            f"{mism} quotient/oracle mismatches")


def _run_demos(args) -> Report:
    w, hw = _parse_weight(args.weight)
    if hw.k1 <= 0:
        raise CliInputError(f"weight field 'c1': demos require k1 > 0, got {hw.k1}")
    _at_least("nmax", args.nmax, 1)
    _at_least("size", args.size, 1)
    transcript = demo_nonintegrability(hw, args.nmax)
    report = demo_infinite_dim(hw, args.size)
    result = {"nonintegrability": transcript.to_json(),
              "infinite_dim": report.to_json()}
    return ({"weight": w.to_json(), "nmax": args.nmax, "size": args.size}, result,
            f"nonintegrability checks hold: {transcript.all_hold()}; "
            f"pairing rank {report.rank}/{report.size}")


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
    grp.add_argument("--depth", type=int, default=8,
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
    args = _build_parser().parse_args(argv)
    try:
        inputs, result, summary = _RUNNERS[args.command](args)
    except CliInputError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=err)
        return 1
    if getattr(args, "format", "json") == "csv":
        import csv  # JSON runs never pay for it
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result["rows"][0])  # columns in row-key order
        writer.writerows([_csv_cell(v) for v in row.values()] for row in result["rows"])
    else:
        json.dump({"command": args.command, "version": __version__,
                   "input": inputs, "result": result}, out, indent=2)
        out.write("\n")
    print(summary, file=err)
    return 0


def main() -> None:
    # a reader that closes the pipe early (``| head``) ends the process
    # quietly, as it ends cat; ``run`` itself never touches signals
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
