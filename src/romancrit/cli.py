"""Command-line front end.

Sub-commands: gamma, report, classify, gen, verify, oracle. Graphs move
around as graph6 text, one per line, on stdin/stdout or via --input.

Exit codes: 0 clean, 2 when a verification-style command found
counterexamples or mismatches, 1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Iterator, Sequence, TextIO

from .errors import RomanCritError
from .gamma4 import classify_critical4
from .graphs import FAMILY_TAGS, Graph, gen_family
from .graph6 import GRAPH6_HEADER, emit_graph6, parse_graph6
from .harness import claim_catalog, criticality_report, verify_claims
from .solver import RomanAssignment, roman_number, roman_number_oracle


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1, so turn
    # its error() into an exception main() can catch.
    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> Parser:
    parser = Parser(prog="romancrit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_gamma = sub.add_parser(
        "gamma", help="print gamma_r and one minimum assignment per graph"
    )
    _add_input_arg(p_gamma)
    p_gamma.set_defaults(func=cmd_gamma)

    p_report = sub.add_parser(
        "report", help="print a JSON criticality report per graph"
    )
    _add_input_arg(p_report)
    p_report.set_defaults(func=cmd_report)

    p_classify = sub.add_parser(
        "classify", help="print the gamma_r=4 catalog verdict per graph"
    )
    _add_input_arg(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_gen = sub.add_parser("gen", help="emit a named family member as graph6")
    p_gen.add_argument("family", metavar="FAMILY", help=", ".join(FAMILY_TAGS))
    p_gen.add_argument("n", metavar="N", nargs="?", type=int, default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="check claims over a graph source, report counterexamples"
    )
    p_verify.add_argument("claims", metavar="CLAIM", nargs="*")
    p_verify.add_argument(
        "--enumerate",
        dest="enumerate_n",
        metavar="N",
        type=int,
        default=None,
        help="scan all 2^C(N,2) labeled graphs of order N",
    )
    p_verify.add_argument("--input", metavar="FILE", default=None)
    p_verify.add_argument(
        "--families",
        metavar="LIST",
        default=None,
        help="comma-separated TAG:N items, e.g. Dn:6,Dn:8 (N optional "
        "for the fixed-order tags)",
    )
    p_verify.add_argument(
        "--csv",
        action="store_true",
        help="emit claim,graph6,diagnostic rows instead of JSON",
    )
    p_verify.add_argument(
        "--timing",
        action="store_true",
        help="include wall_time_ms in JSON output",
    )
    p_verify.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the order-7 enumeration guard",
    )
    p_verify.add_argument(
        "--workers",
        metavar="K",
        type=int,
        default=None,
        help="deprecated and ignored: every scan runs in one process",
    )
    p_verify.add_argument(
        "--list-claims", action="store_true", help="list claim ids and exit"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser(
        "oracle", help="cross-check the solver against full 3^n enumeration"
    )
    _add_input_arg(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def _add_input_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="graph6 file, one graph per line (default: stdin)",
    )


def _read_graphs(args: argparse.Namespace) -> Iterator[tuple[str, Graph]]:
    if args.input is not None:
        with open(args.input, "r", encoding="ascii") as fh:
            yield from _parse_stream(fh)
    else:
        yield from _parse_stream(sys.stdin)


def _parse_stream(fh: TextIO) -> Iterator[tuple[str, Graph]]:
    # the echoed line drops a graph6 header, which is not part of the graph
    for line in fh:
        line = line.strip()
        if line:
            yield line.removeprefix(GRAPH6_HEADER), parse_graph6(line)


def _fmt_set(vertices: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _fmt_assignment(a: RomanAssignment) -> str:
    return (
        f"V2={_fmt_set(a.label_set(2))}"
        f" V1={_fmt_set(a.label_set(1))}"
        f" V0={_fmt_set(a.label_set(0))}"
    )


def cmd_gamma(args: argparse.Namespace) -> int:
    for line, g in _read_graphs(args):
        res = roman_number(g)
        print(f"{line} gamma={res.gamma} {_fmt_assignment(res.witness)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    dirty = False
    for _, g in _read_graphs(args):
        rep = criticality_report(g)
        out = {"graph6": emit_graph6(g)}
        out.update(rep.to_json_dict())
        print(json.dumps(out, separators=(",", ":")))
        dirty = dirty or bool(rep.diagnostics)
    return 2 if dirty else 0


def cmd_classify(args: argparse.Namespace) -> int:
    for line, g in _read_graphs(args):
        print(f"{line} {classify_critical4(g)}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    print(emit_graph6(gen_family(args.family, args.n)))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    mismatched = False
    for line, g in _read_graphs(args):
        got = roman_number(g).gamma
        want = roman_number_oracle(g)
        status = "OK" if got == want else "MISMATCH"
        mismatched = mismatched or got != want
        print(f"{line} gamma={got} oracle={want} {status}")
    return 2 if mismatched else 0


def _parse_families(text: str) -> tuple[tuple[str, int | None], ...]:
    items = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            tag, _, num = chunk.partition(":")
            try:
                items.append((tag, int(num)))
            except ValueError:
                raise UsageError(f"bad family item {chunk!r}") from None
        else:
            items.append((chunk, None))
    if not items:
        raise UsageError("--families list is empty")
    return tuple(items)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.list_claims:
        for cid, desc in claim_catalog():
            print(f"{cid}: {desc}")
        return 0
    if not args.claims:
        raise UsageError("no claim ids given (use --list-claims to see them)")

    sources = [
        s
        for s in (
            ("enumerate", args.enumerate_n),
            ("file", args.input),
            ("families", args.families),
        )
        if s[1] is not None
    ]
    if len(sources) != 1:
        raise UsageError(
            "exactly one of --enumerate, --input, --families is required"
        )
    kind, value = sources[0]
    if kind == "families":
        source = ("families", _parse_families(value))
    else:
        source = (kind, value)

    if args.workers is not None:
        print(
            "romancrit: note: --workers is deprecated and ignored; "
            "every scan runs in one process",
            file=sys.stderr,
        )
    reports = verify_claims(args.claims, source, allow_large=args.allow_large)

    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["claim", "graph6", "diagnostic"])
        for rep in reports:
            for cex in rep.counterexamples:
                writer.writerow([rep.claim, cex.graph6, cex.diagnostic])
    elif len(reports) == 1:
        print(reports[0].to_json(include_timing=args.timing))
    else:
        print(
            json.dumps(
                [r.to_json_dict(include_timing=args.timing) for r in reports],
                indent=2,
            )
        )
    return 2 if any(r.counterexamples for r in reports) else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"romancrit: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"romancrit: error: {exc}", file=sys.stderr)
        return 1
    except RomanCritError as exc:
        print(f"romancrit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"romancrit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
