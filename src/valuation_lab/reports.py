"""Report assembly and rendering for the command-line interface.

Payloads are plain JSON-serializable dicts; the table renderer shows the
same numbers in a compact human layout.  Exact rationals appear as "p/q"
strings next to a decimal approximation rounded to six significant digits.
Output contains no timestamps unless explicitly requested, so reports are
byte-identical across runs.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Any

from .bounds import BoundReport, MultiValuation, TonoValuation, ValuationBundle
from .bounds import lambda_lower_bound, multi_ratio_bound
from .checks import CheckResult, FuzzSummary


def approx(x: Fraction | int) -> float:
    """Decimal approximation at six significant digits."""
    return float(f"{float(x):.6g}")


def rational_payload(x: Fraction | int) -> dict[str, Any]:
    frac = Fraction(x)
    return {"exact": str(frac), "approx": approx(frac)}


def compress_runs(values: tuple[int, ...]) -> str:
    """Run-length display for long multiplicity vectors: ``6 3x7 1x9``."""
    parts: list[str] = []
    for value, run in itertools.groupby(values):
        count = len(list(run))
        parts.append(str(value) if count == 1 else f"{value}x{count}")
    return " ".join(parts)


def invariants_payload(bundle: ValuationBundle) -> dict[str, Any]:
    cfg = bundle.cfg
    record = bundle.record
    decomposition = record.decomposition
    # Listing the multiplicities checks the chain's size before the
    # satellites, at most as many, are listed.
    return {
        "name": cfg.name,
        "points": cfg.size,
        "is_m_adic": record.is_m_adic,
        "multiplicities": list(record.multiplicities.values),
        "satellites": [
            i
            for first, last, _ in cfg.structure.stretches
            for i in range(first, last + 1)
        ],
        "blocks": [list(block) for block in decomposition.blocks],
        "genus": decomposition.genus_count,
        "contact_values": list(record.beta_bar),
        "gcd_chain": list(record.contact.gcd_chain),
        "puiseux_exponents": [rational_payload(x) for x in record.puiseux.beta_prime],
        "run_lengths": [list(t) for t in record.puiseux.run_length_tables],
        "volume": rational_payload(record.volume),
        "normalized_volume": rational_payload(record.normalized_volume),
        "tangent_value": record.tangent_value,
        "delta0": bundle.delta0,
    }


def _bound_entry_payload(entry) -> dict[str, Any]:
    value = entry.value
    payload: dict[str, Any] = {"source": entry.source}
    if isinstance(value, Fraction) and value.denominator != 1:
        payload["value"] = rational_payload(value)
    else:
        payload["value"] = int(value)
    return payload


def bounds_payload(
    report: BoundReport, bundle: ValuationBundle
) -> dict[str, Any]:
    payload = {
        "name": bundle.cfg.name,
        "points": bundle.cfg.size,
        "delta0": bundle.delta0,
        "degree_bound": _bound_entry_payload(report.degree_bound),
        "mu_hat_upper_bound": _bound_entry_payload(report.mu_hat_upper),
        "ratio_bound": _bound_entry_payload(report.ratio_bound),
        "trivial_lambda_bound": _bound_entry_payload(report.trivial_bound),
    }
    if report.combinatorial_lambda_bound is not None:
        payload["combinatorial_lambda_bound"] = _bound_entry_payload(
            report.combinatorial_lambda_bound
        )
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
    valuations = []
    failed = 0
    total = 0
    for name, results in named_results:
        total += len(results)
        failed += sum(1 for r in results if not r.passed)
        valuations.append(
            {
                "name": name,
                "checks": [
                    {"check": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            }
        )
    return {
        "valuations": valuations,
        "summary": {"checks_run": total, "checks_failed": failed},
    }


def fuzz_payload(summary: FuzzSummary) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "max_points": summary.max_points,
        "trials": summary.trials,
        "seed": summary.seed,
        "checks_passed": summary.checks_passed,
        "checks_failed": summary.checks_failed,
        "first_failure": None,
    }
    if summary.first_failure is not None:
        f = summary.first_failure
        payload["first_failure"] = {
            "trial": f.trial,
            "proximity": [list(ts) for ts in f.proximity_lists],
            "tangent_count": f.tangent_count,
            "check": f.check,
            "detail": f.detail,
        }
    return payload


def family_payload(family: TonoValuation) -> dict[str, Any]:
    return {
        "a": family.a,
        "e": family.e,
        "trailing_free_points": family.trailing_free,
        "curve_degree": family.curve_degree,
        "curve_value": family.curve_value,
        "mu_hat": rational_payload(family.mu_hat),
        "mu_hat_upper_bound": family.mu_hat_bound,
        "ratio": rational_payload(family.ratio),
        "verified": True,
    }


def render_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _label(index: int, name: str | None, points: int) -> str:
    shown = name if name else f"valuation {index}"
    return f"{shown} ({points} point{'s' if points != 1 else ''})"


def _rational_from_payload(entry: dict[str, Any] | int) -> str:
    """Table text of a payload number: ``p/q (~approx)`` or an integer."""
    if not isinstance(entry, dict):
        return str(entry)
    if "/" not in entry["exact"]:
        return entry["exact"]
    return f"{entry['exact']} (~{entry['approx']})"


def render_invariants_table(payload: dict[str, Any]) -> str:
    lines = []
    for idx, val in enumerate(payload["valuations"], start=1):
        lines.append(f"== {_label(idx, val['name'], val['points'])} ==")
        rows = [
            ("multiplicities", compress_runs(tuple(val["multiplicities"]))),
            ("satellites", " ".join(map(str, val["satellites"])) or "none"),
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
        lines.append(f"== {_label(idx, val['name'], val['points'])} ==")
        rows = [("delta0", str(val["delta0"]), "")]
        for key, label in (
            ("degree_bound", "degree bound (own multiplicities)"),
            ("mu_hat_upper_bound", "mu-hat upper bound"),
            ("ratio_bound", "ratio bound"),
            ("combinatorial_lambda_bound", "combinatorial lambda bound"),
            ("trivial_lambda_bound", "trivial lambda bound"),
        ):
            if key not in val:
                continue
            entry = val[key]
            rows.append((label, _rational_from_payload(entry["value"]), entry["source"]))
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
        name = val["name"] if val["name"] else f"valuation {idx}"
        lines.append(f"== {name} ==")
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
