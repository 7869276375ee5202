"""Report assembly and rendering for the command-line interface.

Payloads are plain JSON-serializable dicts; the table renderer shows the
same numbers in a compact human layout.  The invariants payload shares the
record's immutable tuples, which ``json.dumps`` writes as arrays.  Exact
rationals appear as "p/q" strings, written from the coprime p and q that
``invariant_record`` folds in its block loop, next to p / q rounded to six
significant digits.  Output contains no timestamps unless explicitly
requested, so reports are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import Any

from .bounds import MultiValuation, TonoValuation
from .bounds import bound_report, lambda_lower_bound, multi_ratio_bound
from .checks import CheckResult, FuzzSummary
from .valfile import ValuationEntry

# Each bound of ``bounds.BoundReport``, in report order: key -> (label, source).
_BOUNDS = {
    "degree_bound": (
        "degree bound (own multiplicities)", "nef pairing on the ruled model"
    ),
    "mu_hat_upper_bound": ("mu-hat upper bound", "limit of the degree bound"),
    "ratio_bound": ("ratio bound", "self-intersection of strict transforms"),
    "combinatorial_lambda_bound": (
        "combinatorial lambda bound", "dual-graph data only"
    ),
    "trivial_lambda_bound": ("trivial lambda bound", "point count"),
}


def approx(x: float) -> float:
    """Decimal approximation at six significant digits."""
    return float(f"{x:.6g}")


def rational_payload(p: int, q: int) -> dict[str, Any]:
    """``str(Fraction(p, q))`` for coprime p and q >= 1, and p / q, which
    rounds as ``float(Fraction(p, q))`` does and overflows with its message."""
    return {"exact": f"{p}/{q}" if q != 1 else str(p), "approx": approx(p / q)}


def compress_runs(runs: Iterable[Sequence[int]]) -> str:
    """Run-length display of multiplicity runs (value, count): ``6 3x7 1x9``."""
    return " ".join(
        str(value) if count == 1 else f"{value}x{count}" for value, count in runs
    )


def invariants_payload(entry: ValuationEntry, formatted=None) -> dict[str, Any]:
    """The record's numbers; its rationals are printed from their integers.
    ``formatted``, one report's dict, lets equal exponents share one payload."""
    formatted = {} if formatted is None else formatted
    bundle = entry.bundle
    cfg, record = bundle.cfg, bundle.record
    structure = cfg.structure
    square, last = record.beta_bar[0] ** 2, record.beta_bar[-1]
    common = math.gcd(square, last)
    return {
        "name": entry.name,
        "points": cfg.size,
        "is_m_adic": record.is_m_adic,
        "multiplicity_runs": record.multiplicities.runs,
        "satellite_stretches": structure.stretches,
        "blocks": structure.blocks,
        "genus": structure.genus_count,
        "contact_values": record.beta_bar,
        "gcd_chain": record.gcd_chain,
        "puiseux_exponents": [
            formatted.get(r) or formatted.setdefault(r, rational_payload(*r))
            for r in record.ratios
        ],
        "run_lengths": record.run_length_tables,
        "volume": rational_payload(1, last),
        "normalized_volume": rational_payload(square // common, last // common),
        "tangent_value": record.tangent_value,
        "delta0": bundle.delta0,
    }


def bounds_payload(entry: ValuationEntry) -> dict[str, Any]:
    """The entry's bound report, each bound under its field's name with its
    source from ``_BOUNDS``."""
    bundle = entry.bundle
    payload: dict[str, Any] = {
        "name": entry.name,
        "points": bundle.cfg.size,
        "delta0": bundle.delta0,
    }
    for key, value in bound_report(bundle)._asdict().items():
        if value is None:
            continue
        exact = isinstance(value, Fraction) and value.denominator != 1
        shown = rational_payload(*value.as_integer_ratio()) if exact else int(value)
        payload[key] = {"source": _BOUNDS[key][1], "value": shown}
    return payload


def ensemble_payload(mv: MultiValuation) -> dict[str, Any]:
    return {
        "valuations": len(mv.bundles),
        "aligned_mu": mv.aligned_mu,
        "multi_ratio_bound": multi_ratio_bound(mv),
        "lambda_lower_bound": lambda_lower_bound(mv),
    }


def checks_payload(
    named_results: list[tuple[str | None, list[CheckResult]]]
) -> dict[str, Any]:
    valuations = [
        {
            "name": name,
            "checks": [
                {"check": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        for name, results in named_results
    ]
    rows = [r for _, results in named_results for r in results]
    failed = sum(not r.passed for r in rows)
    return {
        "valuations": valuations,
        "summary": {"checks_run": len(rows), "checks_failed": failed},
    }


def fuzz_payload(summary: FuzzSummary) -> dict[str, Any]:
    """The summary under its field names, its first failure's included."""
    failure = summary.first_failure
    return {**summary._asdict(), "first_failure": failure and failure._asdict()}


def family_payload(family: TonoValuation) -> dict[str, Any]:
    return {
        "a": family.a,
        "e": family.e,
        "trailing_free_points": family.trailing_free,
        "curve_degree": family.curve_degree,
        "curve_value": family.curve_value,
        "mu_hat": rational_payload(*family.mu_hat.as_integer_ratio()),
        "mu_hat_upper_bound": family.mu_hat_bound,
        "ratio": rational_payload(*family.ratio.as_integer_ratio()),
        "verified": True,
    }


def render_json(payload: dict[str, Any]) -> str:
    """One line of JSON: without ``indent`` the stdlib's C encoder writes it,
    and a tree built fresh for each report needs no cycle check."""
    return json.dumps(payload, sort_keys=True, check_circular=False) + "\n"


def _heading(index: int, val: dict[str, Any]) -> str:
    """A valuation's section heading: its name, or ``valuation {index}`` when
    it has none, then its point count when the payload gives one."""
    shown = val["name"] or f"valuation {index}"
    if "points" in val:
        points = val["points"]
        shown += f" ({points} point{'s' if points != 1 else ''})"
    return f"== {shown} =="


def _rational_from_payload(entry: dict[str, Any] | int) -> str:
    """Table text of a payload number: ``p/q (~approx)`` or an integer."""
    if not isinstance(entry, dict):
        return str(entry)
    if "/" not in entry["exact"]:
        return entry["exact"]
    return f"{entry['exact']} (~{entry['approx']})"


def _satellites_row(stretches: Sequence[Sequence[int]]) -> str:
    """Each satellite stretch (first, last, target) as ``first-last``, or as
    ``first`` when it has one point."""
    return " ".join(
        str(first) if first == last else f"{first}-{last}"
        for first, last, _ in stretches
    ) or "none"


def render_invariants_table(payload: dict[str, Any]) -> str:
    lines = []
    for idx, val in enumerate(payload["valuations"], start=1):
        lines.append(_heading(idx, val))
        rows = [
            ("multiplicities", compress_runs(val["multiplicity_runs"])),
            ("satellites", _satellites_row(val["satellite_stretches"])),
            ("blocks", " ".join(f"[{a},{b}]" for a, b in val["blocks"])),
            ("genus", str(val["genus"])),
            ("contact values", " ".join(map(str, val["contact_values"]))),
            ("gcd chain", " ".join(map(str, val["gcd_chain"]))),
            (
                "puiseux exponents",
                ", ".join(map(_rational_from_payload, val["puiseux_exponents"])),
            ),
            ("volume", _rational_from_payload(val["volume"])),
            ("normalized volume", _rational_from_payload(val["normalized_volume"])),
            ("tangent value", str(val["tangent_value"])),
            ("delta0", str(val["delta0"])),
        ]
        lines.extend(f"  {key:<18} {value}" for key, value in rows)
    return "\n".join(lines) + "\n"


def render_bounds_table(payload: dict[str, Any]) -> str:
    lines = []
    for idx, val in enumerate(payload["valuations"], start=1):
        lines.append(_heading(idx, val))
        rows = [("delta0", str(val["delta0"]), "")]
        for key, (label, source) in _BOUNDS.items():
            if key in val:
                rows.append((label, _rational_from_payload(val[key]["value"]), source))
        for label, value, source in rows:
            suffix = f"  [{source}]" if source else ""
            lines.append(f"  {label:<34} {value}{suffix}")
    ensemble = payload["ensemble"]
    lines.append(
        f"== ensemble of {ensemble['valuations']} "
        f"(aligned points: {ensemble['aligned_mu']}) =="
    )
    lines.append(f"  {'multi ratio bound':<34} {ensemble['multi_ratio_bound']}")
    lines.append(f"  {'lambda lower bound':<34} {ensemble['lambda_lower_bound']}")
    return "\n".join(lines) + "\n"


def render_check_table(payload: dict[str, Any]) -> str:
    lines = []
    for idx, val in enumerate(payload["valuations"], start=1):
        lines.append(_heading(idx, val))
        for check in val["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            detail = f"  ({check['detail']})" if check["detail"] else ""
            lines.append(f"  {check['check']:<28} {status}{detail}")
    summary = payload["summary"]
    lines.append(
        f"checks run: {summary['checks_run']}, failed: {summary['checks_failed']}"
    )
    return "\n".join(lines) + "\n"


def render_fuzz_table(payload: dict[str, Any]) -> str:
    lines = [
        f"trials: {payload['trials']} (max points {payload['max_points']}, "
        f"seed {payload['seed']})",
        f"checks passed: {payload['checks_passed']}",
        f"checks failed: {payload['checks_failed']}",
    ]
    failure = payload["first_failure"]
    if failure is None:
        lines.append("no counterexample found")
    else:
        lines.append(
            f"first counterexample: trial {failure['trial']}, "
            f"check {failure['check']}"
        )
        lines.append(f"  proximity: {failure['proximity']}")
        lines.append(f"  tangent_count: {failure['tangent_count']}")
        if failure["detail"]:
            lines.append(f"  detail: {failure['detail']}")
    return "\n".join(lines) + "\n"


def render_family_table(payload: dict[str, Any]) -> str:
    family = payload["family"]
    lines = [
        f"family member a={family['a']}, e={family['e']} "
        f"({family['trailing_free_points']} trailing free points)",
        f"  curve degree              {family['curve_degree']}",
        f"  curve value               {family['curve_value']}",
        f"  certified mu-hat          {_rational_from_payload(family['mu_hat'])}",
        f"  mu-hat upper bound        {family['mu_hat_upper_bound']}",
        f"  self-intersection ratio   {_rational_from_payload(family['ratio'])}",
        "  closed-form check         pass",
    ]
    body = render_invariants_table({"valuations": payload["valuations"]})
    return "\n".join(lines) + "\n" + body


__all__ = [
    "approx",
    "bounds_payload",
    "checks_payload",
    "compress_runs",
    "ensemble_payload",
    "family_payload",
    "fuzz_payload",
    "invariants_payload",
    "rational_payload",
    "render_bounds_table",
    "render_check_table",
    "render_family_table",
    "render_fuzz_table",
    "render_invariants_table",
    "render_json",
]
