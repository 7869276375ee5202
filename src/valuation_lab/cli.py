"""Command-line interface.

Exit codes: 0 on success, 1 on any validation or usage error (a number too
large for a float, running out of memory or recursion depth, or a chain too
long to list point by point, which only ``fuzz`` lists, included), 2 when a
``check`` or ``fuzz`` run reports a failed identity.

The argument parser is built once per process; each ``main()`` call parses
into a new namespace.

Each ``main()`` call pauses the cyclic garbage collector and, if it was on,
closes with one generation-1 collection, which frees argparse's and the JSON
encoder's few cycles and keeps the caller's full collections coming.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections.abc import Callable
from functools import cache

from . import checks as checks_module
from .bounds import multi_valuation, tono_family
from .errors import ValuationError
from .reports import (
    bounds_payload,
    checks_payload,
    ensemble_payload,
    family_payload,
    fuzz_payload,
    invariants_payload,
    render_bounds_table,
    render_check_table,
    render_family_table,
    render_fuzz_table,
    render_invariants_table,
    render_json,
)
from .valfile import ValuationEntry, ValuationFile, parse_path, serialize


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuation-lab",
        description="Exact invariants and bounds for plane divisorial valuations.",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--timestamps",
        action="store_true",
        help="include a generation timestamp in the report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command in ("invariants", "bounds", "check"):
        p = sub.add_parser(command, help=f"{command} of the valuations in FILE")
        p.add_argument("file", help="valuation file (JSON)")

    family = sub.add_parser("family", help="build a member of a named family")
    family.add_argument("family_name", choices=("tono",))
    family.add_argument("--a", type=int, required=True, help="degree parameter, >= 3")
    family.add_argument("--e", type=int, required=True, help="index parameter, >= 0")
    family.add_argument("--emit", metavar="PATH", help="write a valuation file here")

    fuzz = sub.add_parser("fuzz", help="random configurations vs. identity suite")
    fuzz.add_argument("--max-points", type=int, required=True)
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--seed", type=int, required=True)
    return parser


def _emit(
    payload: dict, render_table: Callable[[dict], str], args: argparse.Namespace
) -> None:
    """Write the payload in the requested format; only that format is rendered."""
    if args.timestamps:
        from datetime import datetime, timezone

        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        sys.stdout.write(render_json(payload))
    else:
        if args.timestamps:
            sys.stdout.write(f"generated at {payload['generated_at']}\n")
        sys.stdout.write(render_table(payload))


def _cmd_invariants(args: argparse.Namespace) -> int:
    vf = parse_path(args.file)
    formatted: dict = {}  # each distinct Puiseux exponent's payload, this report only
    payload = {
        "command": "invariants",
        "valuations": [invariants_payload(entry, formatted) for entry in vf.entries],
    }
    _emit(payload, render_invariants_table, args)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    vf = parse_path(args.file)
    mv = multi_valuation([entry.bundle for entry in vf.entries], vf.aligned_mu)
    payload = {
        "command": "bounds",
        "valuations": [bounds_payload(entry) for entry in vf.entries],
        "ensemble": ensemble_payload(mv),
    }
    _emit(payload, render_bounds_table, args)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    vf = parse_path(args.file)
    results = [
        (entry.name, checks_module.identity_checks(entry.bundle))
        for entry in vf.entries
    ]
    payload = {"command": "check", **checks_payload(results)}
    _emit(payload, render_check_table, args)
    return 0 if payload["summary"]["checks_failed"] == 0 else 2


def _cmd_family(args: argparse.Namespace) -> int:
    family = tono_family(args.a, args.e)
    entry = ValuationEntry({"tono": {"a": args.a, "e": args.e}}, family.bundle)
    payload = {
        "command": "family",
        "family": family_payload(family),
        "valuations": [invariants_payload(entry)],
        "bounds": bounds_payload(entry),
    }
    if args.emit is not None:
        # The emitted entry writes its name, so the file names it as shown.
        named = ValuationEntry({"name": entry.name, **entry.payload}, entry.bundle)
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(serialize(ValuationFile((named,), None)))
    _emit(payload, render_family_table, args)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    summary = checks_module.fuzz(args.max_points, args.trials, args.seed)
    payload = {"command": "fuzz", **fuzz_payload(summary)}
    _emit(payload, render_fuzz_table, args)
    return 0 if summary.ok else 2


_COMMANDS = {
    "invariants": _cmd_invariants,
    "bounds": _cmd_bounds,
    "check": _cmd_check,
    "family": _cmd_family,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # only argparse exits: a usage error or --help
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    except (
        ValuationError, ValueError, OSError, OverflowError, MemoryError, RecursionError
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()
            gc.collect(1)


if __name__ == "__main__":
    sys.exit(main())
