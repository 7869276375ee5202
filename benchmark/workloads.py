"""Workload inputs and independent output checkers.

Each workload is a fixed list of ``valuation-lab`` command lines (one
pass) built from the benchmark seed.  The program sees only these command
lines and, for ``file-mixed``, one generated valuation file.  Every op has
a checker that validates the program's stdout against values derived here
from the inputs alone: closed forms, the documented Euclidean expansion of
contact values, and a separate backward multiplicity recursion.  No checker
reads the report's ``multiplicities`` list, so a run-length schema for that
field stays measurable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("tono-sweep", "fuzz-small", "file-mixed")
FORMATS = ("table", "json")


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and what its output must show."""

    label: str
    kind: str  # the command and its inputs, whatever the output format
    argv: tuple[str, ...]
    valuations: int
    check: Callable[[int, str], str | None]


@dataclass
class Workload:
    name: str
    params: dict[str, Any]
    ops: list[Op]
    files: dict[str, str]
    descriptors: dict[str, int]
    input_digest: str = field(init=False)

    def __post_init__(self) -> None:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(json.dumps(op.argv).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode())
        self.input_digest = h.hexdigest()


def derived_seed(name: str, seed: int) -> int:
    """Program-facing seed for a workload, independent across workloads."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Independent descriptors: points, multiplicity runs and genus of an input.


def contact_runs(beta_bar: list[int], trailing_free: int = 0) -> list[tuple[int, int]]:
    """Multiplicity runs ``(value, count)`` of the chain with these contact values.

    Block j expands (e_{j-1}, beta_j - n_{j-1} beta_{j-1} + e_{j-1}) by the
    subtractive Euclidean algorithm; consecutive blocks share one endpoint.
    """
    values: list[list[int]] = []

    def emit(small: int, large: int, skip_first: bool) -> None:
        s, big = small, large
        while True:
            q, r = divmod(big, s)
            if skip_first:
                q -= 1
                skip_first = False
            if q:
                if values and values[-1][0] == s:
                    values[-1][1] += q
                else:
                    values.append([s, q])
            if r == 0:
                return
            s, big = r, s

    emit(beta_bar[0], beta_bar[1], False)
    e_prev, e_here = beta_bar[0], math.gcd(beta_bar[0], beta_bar[1])
    for j in range(2, len(beta_bar)):
        y = beta_bar[j] - (e_prev // e_here) * beta_bar[j - 1] + e_here
        emit(e_here, y, True)
        e_prev, e_here = e_here, math.gcd(e_here, y)
    if trailing_free:
        values[-1][1] += trailing_free
    return [(v, c) for v, c in values]


def proximity_multiplicities(lists: list[list[int]]) -> list[int]:
    """Backward recursion: v_n = 1, v_i = sum of v_j over the p_j proximate to p_i."""
    n = len(lists)
    v = [0] * (n + 1)
    v[n] = 1
    for j in range(n, 1, -1):
        for target in lists[j - 1]:
            v[target] += v[j]
    return v[1:]


def proximity_genus(lists: list[list[int]]) -> int:
    """Number of maximal runs of satellite points (two proximity targets)."""
    genus, inside = 0, False
    for targets in lists:
        satellite = len(targets) == 2
        genus += satellite and not inside
        inside = satellite
    return genus


def run_count(values: list[int]) -> int:
    return sum(1 for i, x in enumerate(values) if i == 0 or x != values[i - 1])


def tono_expected(a: int, e: int) -> dict[str, Any]:
    contact = [a * a - a, a * a, a**3 + 2 * a + 1, (e + 2) * a**4 - 2 * a**3]
    trailing = (e + 1) * a**4 - 2 * a**3 - 2 * a * a - a
    runs = contact_runs(contact[:3], trailing)
    return {
        "contact": contact,
        "tangent": a * a,
        "delta0": e,
        "mu_hat_upper_bound": (e + 2) * a * a - a,
        "points": sum(c for _, c in runs),
        "runs": len(runs),
        "genus": 2,
    }


# ---------------------------------------------------------------------------
# Checkers.  Each returns None when the output is right, else a reason.


def _table_rows(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines():
        m = re.match(r"  (\S.*?)\s{2,}(\S.*)$", line)
        if m:
            rows.setdefault(m.group(1), m.group(2))
    return rows


def _sections(text: str) -> list[tuple[str, list[str]]]:
    sections: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            sections.append((line[3:-3], []))
        elif sections:
            sections[-1][1].append(line)
    return sections


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _guard(check: Callable[..., str | None]) -> Callable[..., str | None]:
    def guarded(*args: Any) -> str | None:
        try:
            return check(*args)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"

    return guarded


def family_checker(a: int, e: int, fmt: str) -> Callable[[int, str], str | None]:
    want = tono_expected(a, e)

    @_guard
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if fmt == "json":
            report = json.loads(out)
            val = report["valuations"][0]
            got = {
                "contact": val["contact_values"],
                "tangent": val["tangent_value"],
                "delta0": val["delta0"],
                "mu_hat_upper_bound": report["family"]["mu_hat_upper_bound"],
                "points": val["points"],
            }
            if report["bounds"]["mu_hat_upper_bound"]["value"] != got["mu_hat_upper_bound"]:
                return "bounds and family disagree on mu_hat_upper_bound"
        else:
            rows = _table_rows(out)
            got = {
                "contact": _ints(rows["contact values"]),
                "tangent": int(rows["tangent value"]),
                "delta0": int(rows["delta0"]),
                "mu_hat_upper_bound": int(rows["mu-hat upper bound"]),
                "points": int(re.search(r"\((\d+) points\) ==", out).group(1)),
            }
        for key, value in got.items():
            if value != want[key]:
                return f"{key} {value} != {want[key]}"
        return None

    return check


def fuzz_checker(max_points: int, trials: int, seed: int, fmt: str):
    @_guard
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if fmt == "json":
            r = json.loads(out)
            got = (r["trials"], r["max_points"], r["seed"], r["checks_failed"])
            passed = r["checks_passed"]
        else:
            m = re.search(r"trials: (\d+) \(max points (\d+), seed (\d+)\)", out)
            failed = re.search(r"checks failed: (\d+)", out)
            got = (*map(int, m.groups()), int(failed.group(1)))
            passed = int(re.search(r"checks passed: (\d+)", out).group(1))
        if got != (trials, max_points, seed, 0):
            return f"(trials, max_points, seed, failed) = {got}"
        if passed < trials:
            return f"only {passed} checks passed over {trials} trials"
        return None

    return check


def file_checker(verb: str, entries: list[dict[str, Any]], fmt: str):
    """Checks one report section per entry, in file order, plus verb specifics.

    ``entries`` holds, per file entry, its name, points, genus and the
    expected first and last contact values (and a prefix for contact inputs).
    """

    def check_contact(i: int, got: list[int]) -> str | None:
        want = entries[i]
        prefix = want.get("prefix", [])
        if got[: len(prefix)] != prefix:
            return f"{want['name']}: contact values {got} do not start with {prefix}"
        if (got[0], got[-1]) != (want["first"], want["last"]):
            return (
                f"{want['name']}: first/last contact {got[0]}, {got[-1]} != "
                f"{want['first']}, {want['last']}"
            )
        return None

    @_guard
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        names = [e["name"] for e in entries]
        if fmt == "json":
            report = json.loads(out)
            vals = report["valuations"]
            if [v["name"] for v in vals] != names:
                return f"sections {[v['name'] for v in vals]} != entries {names}"
            for i, v in enumerate(vals):
                if verb == "check":
                    bad = [c["check"] for c in v["checks"] if not c["passed"]]
                    if bad:
                        return f"{names[i]}: failed {bad}"
                    continue
                if v["points"] != entries[i]["points"]:
                    return f"{names[i]}: {v['points']} points != {entries[i]['points']}"
                if verb == "invariants":
                    if v["genus"] != entries[i]["genus"]:
                        return f"{names[i]}: genus {v['genus']} != {entries[i]['genus']}"
                    reason = check_contact(i, v["contact_values"])
                    if reason:
                        return reason
            if verb == "bounds" and report["ensemble"]["valuations"] != len(entries):
                return "ensemble does not cover every entry"
            if verb == "check" and report["summary"]["checks_failed"] != 0:
                return f"{report['summary']['checks_failed']} checks failed"
            return None

        sections = _sections(out)
        if verb == "bounds":
            ensemble = sections.pop()[0]
            if not ensemble.startswith(f"ensemble of {len(entries)} "):
                return f"ensemble header {ensemble!r}"
        if len(sections) != len(entries):
            return f"{len(sections)} sections for {len(entries)} entries"
        for i, (title, lines) in enumerate(sections):
            want = entries[i]
            if verb == "check":
                if title != want["name"]:
                    return f"section {title!r} != {want['name']!r}"
                if any(" FAIL" in line for line in lines):
                    return f"{title}: a check failed"
                continue
            points = want["points"]
            expected = f"{want['name']} ({points} point{'s' if points != 1 else ''})"
            if title != expected:
                return f"section {title!r} != {expected!r}"
            if verb == "invariants":
                rows = _table_rows("\n".join(lines))
                if int(rows["genus"]) != want["genus"]:
                    return f"{title}: genus {rows['genus']} != {want['genus']}"
                reason = check_contact(i, _ints(rows["contact values"]))
                if reason:
                    return reason
        if verb == "check" and not re.search(r"checks run: \d+, failed: 0\n$", out):
            return "summary reports failed checks"
        return None

    return check


# ---------------------------------------------------------------------------
# Workload builders.  ``tiny`` shrinks every size for warm-up and self-tests.


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "tono-sweep":
        return _tono_sweep(tiny)
    if name == "fuzz-small":
        return _fuzz_small(seed, tiny)
    if name == "file-mixed":
        return _file_mixed(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _tono_sweep(tiny: bool) -> Workload:
    grid = [(a, e) for a in ((3, 4) if tiny else (9, 12)) for e in ((0, 1) if tiny else (0, 3))]
    ops = [
        Op(
            label=f"family a={a} e={e} {fmt}",
            kind=f"family a={a} e={e}",
            argv=("--format", fmt, "family", "tono", "--a", str(a), "--e", str(e)),
            valuations=1,
            check=family_checker(a, e, fmt),
        )
        for a, e in grid
        for fmt in FORMATS
    ]
    members = [tono_expected(a, e) for a, e in grid]
    return Workload(
        name="tono-sweep",
        params={"a_e": grid, "formats": list(FORMATS)},
        ops=ops,
        files={},
        descriptors={k: sum(m[k] for m in members) for k in ("points", "runs", "genus")},
    )


def _fuzz_small(seed: int, tiny: bool) -> Workload:
    from valuation_lab.checks import random_configuration

    max_points, trials = 12, (20 if tiny else 1000)
    s = derived_seed("fuzz-small", seed)
    ops = [
        Op(
            label=f"fuzz {trials}x{max_points} {fmt}",
            kind="fuzz",
            argv=("--format", fmt, "fuzz", "--max-points", str(max_points),
                  "--trials", str(trials), "--seed", str(s)),
            valuations=trials,
            check=fuzz_checker(max_points, trials, s, fmt),
        )
        for fmt in FORMATS
    ]
    # Describe the trial configurations by regenerating them with the
    # per-trial stream that ``fuzz`` documents ("seed:trial").
    totals = {"points": 0, "runs": 0, "genus": 0}
    for trial in range(trials):
        lists = random_configuration(random.Random(f"{s}:{trial}"), max_points).proximity_lists()
        totals["points"] += len(lists)
        totals["runs"] += run_count(proximity_multiplicities(lists))
        totals["genus"] += proximity_genus(lists)
    return Workload(
        name="fuzz-small",
        params={"max_points": max_points, "trials": trials, "program_seed": s},
        ops=ops,
        files={},
        descriptors=totals,
    )


def _stratified_configurations(rng: random.Random, bands: int, width: int):
    """One configuration per size band (width points each).

    Each is grown as ``checks.random_configuration`` grows one, but at a
    size drawn inside its band, so the file's total size, and the time to
    make it, barely depend on the seed.
    """
    from valuation_lab.checks import SATELLITE_BIAS
    from valuation_lab.configurations import build_configuration, max_tangent_count

    configurations = []
    for k in range(bands):
        n = rng.randint(k * width + 1, (k + 1) * width)
        prox: list[list[int]] = [[]]
        for i in range(2, n + 1):
            targets = [i - 1]
            if i >= 3 and rng.random() < SATELLITE_BIAS:
                targets.append(rng.choice(sorted(prox[i - 2])))
            prox.append(targets)
        draft = build_configuration(prox)
        if n > 1:
            tangent = rng.randint(2, max_tangent_count(draft))
            draft = build_configuration(prox, tangent_count=tangent)
        configurations.append(draft)
    return configurations


def _file_mixed(seed: int, tiny: bool) -> Workload:
    rng = random.Random(derived_seed("file-mixed", seed))
    raw: list[dict[str, Any]] = []
    entries: list[dict[str, Any]] = []

    bands, width = (4, 5) if tiny else (40, 5)
    for k, cfg in enumerate(_stratified_configurations(rng, bands, width)):
        lists = cfg.proximity_lists()
        name = f"prox-{k}"
        raw.append({"name": name, "proximity": lists, "tangent_count": cfg.tangent_count})
        v = proximity_multiplicities(lists)
        entries.append({
            "name": name, "points": len(lists), "runs": run_count(v),
            "genus": proximity_genus(lists), "first": v[0], "last": sum(x * x for x in v),
        })

    for k in range(2 if tiny else 4):
        if k % 2 == 0:  # genus 1: a coprime pair
            b0 = rng.randint(2, 12)
            b1 = rng.choice([b for b in range(b0 + 1, 3 * b0 + 2) if math.gcd(b0, b) == 1])
            seq = [b0, b1]
        else:  # genus 2: gcd chain e1 -> 1
            e1 = rng.choice((2, 3))
            p = rng.randint(2, 6)
            q = rng.choice([x for x in range(p + 1, 3 * p + 2) if math.gcd(p, x) == 1])
            y = rng.choice([x for x in range(e1 + 1, 40) if math.gcd(e1, x) == 1])
            seq = [e1 * p, e1 * q, p * e1 * q + y - e1]
        trailing = rng.randint(0, 60)
        name = f"contact-{k}"
        item: dict[str, Any] = {"name": name, "maximal_contact": seq}
        if trailing:
            item["trailing_free"] = trailing
        raw.append(item)
        runs = contact_runs(seq, trailing)
        entries.append({
            "name": name, "points": sum(c for _, c in runs), "runs": len(runs),
            "genus": len(seq) - 1, "prefix": seq, "first": seq[0],
            "last": sum(c * v * v for v, c in runs),
        })

    a, e = (3, 0) if tiny else (4, 1)
    tono = tono_expected(a, e)
    raw.append({"name": f"tono-{a}-{e}", "tono": {"a": a, "e": e}})
    entries.append({
        "name": f"tono-{a}-{e}", "points": tono["points"], "runs": tono["runs"],
        "genus": tono["genus"], "prefix": tono["contact"], "first": tono["contact"][0],
        "last": tono["contact"][-1],
    })

    path = "file-mixed-tiny.json" if tiny else "file-mixed.json"
    text = json.dumps({"valuations": raw}, indent=1) + "\n"
    ops = [
        Op(
            label=f"{verb} {fmt}",
            kind=verb,
            argv=("--format", fmt, verb, path),
            valuations=len(entries),
            check=file_checker(verb, entries, fmt),
        )
        for verb in ("invariants", "bounds", "check")
        for fmt in FORMATS
    ]
    return Workload(
        name="file-mixed",
        params={"entries": len(entries), "size_bands": [bands, width],
                "program_seed": derived_seed("file-mixed", seed)},
        ops=ops,
        files={path: text},
        descriptors={k: sum(x[k] for x in entries) for k in ("points", "runs", "genus")},
    )
