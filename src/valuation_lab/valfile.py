"""Parsing and serialization of valuation files.

A file is a JSON object ``{"valuations": [entry, ...], "aligned_mu": int?}``.
Each entry carries an optional ``name`` and exactly one encoding:

* ``{"proximity": [[...], ...], "tangent_count": int?}``
* ``{"maximal_contact": [int, ...], "trailing_free": int?}``
* ``{"tono": {"a": int, "e": int}}``

``parse`` builds each entry's bundle, which the commands read; a tono entry
keeps the bundle its family built.  A proximity entry is checked by the
build's one pass over its targets; only a failed build rescans it, to name
its first malformed target in file order.  A name is the entry's, not the
chain's: two entries that write one chain under two names hold equal
bundles, and the reports read ``ValuationEntry.name``.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any, NamedTuple

from .bounds import ValuationBundle, tono_family, valuation_bundle
from .configurations import build_configuration
from .errors import FileFormatError, ValuationError
from .invariants import from_maximal_contact

# The keys an entry of each encoding may carry, and those any entry may.
_ALLOWED = {
    "proximity": frozenset({"name", "proximity", "tangent_count"}),
    "maximal_contact": frozenset({"name", "maximal_contact", "trailing_free"}),
    "tono": frozenset({"name", "tono"}),
}
_KEYS = frozenset().union(*_ALLOWED.values())
_ENCODINGS = tuple(_ALLOWED)

# Largest file that is read, in bytes: about 16 bytes of memory per file byte.
MAX_FILE_BYTES = 20 * 10**6


class ValuationEntry(NamedTuple):
    """An entry as written, its ``name`` included, and the bundle built from it."""

    payload: dict[str, Any]
    bundle: ValuationBundle

    @property
    def name(self) -> str | None:
        """The name written with the entry; an unnamed tono entry is named
        after its family member."""
        tono = self.payload.get("tono")
        return self.payload.get("name", tono and f"tono-a{tono['a']}-e{tono['e']}")


class ValuationFile(NamedTuple):
    entries: tuple[ValuationEntry, ...]
    aligned_mu: int | None


def _require_int(value: Any, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FileFormatError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise FileFormatError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _parse_entry(raw: Any, where: str) -> ValuationEntry:
    if not isinstance(raw, dict):
        raise FileFormatError(f"{where}: expected an object")
    if not raw.keys() <= _KEYS:
        raise FileFormatError(f"{where}: unknown keys {sorted(raw.keys() - _KEYS)}")

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise FileFormatError(f"{where}.name: expected a string")

    present = [k for k in _ENCODINGS if k in raw]
    if len(present) != 1:
        raise FileFormatError(
            f"{where}: exactly one of {_ENCODINGS} is required, found {present}"
        )
    kind = present[0]
    if not raw.keys() <= _ALLOWED[kind]:
        raise FileFormatError(
            f"{where}: keys {sorted(raw.keys() - _ALLOWED[kind])} do not apply "
            f"to a {kind} entry"
        )

    try:
        if kind == "proximity":
            lists, tangent = raw["proximity"], raw.get("tangent_count")
            # Any failed build, a non-list's included, rescans in file order.
            try:
                cfg = build_configuration(lists, tangent_count=tangent)
            except (ValuationError, TypeError, LookupError):
                if type(lists) is not list or any(type(e) is not list for e in lists):
                    raise FileFormatError(
                        f"{where}.proximity: expected a list of lists of integers"
                    )
                for i, entry in enumerate(lists):
                    for t in entry:
                        _require_int(t, f"{where}.proximity[{i}]", minimum=1)
                if tangent is not None:
                    _require_int(tangent, f"{where}.tangent_count", minimum=1)
                raise
        elif kind == "maximal_contact":
            seq = raw["maximal_contact"]
            if not isinstance(seq, list):
                raise FileFormatError(
                    f"{where}.maximal_contact: expected a list of integers"
                )
            for i, x in enumerate(seq):
                _require_int(x, f"{where}.maximal_contact[{i}]", minimum=1)
            trailing = raw.get("trailing_free")
            if trailing is not None:
                _require_int(trailing, f"{where}.trailing_free", minimum=0)
            cfg = from_maximal_contact(seq, trailing_free=trailing or 0)
        else:
            params = raw["tono"]
            if not isinstance(params, dict) or set(params) != {"a", "e"}:
                raise FileFormatError(
                    f'{where}.tono: expected an object with keys "a" and "e"'
                )
            a = _require_int(params["a"], f"{where}.tono.a", minimum=3)
            e = _require_int(params["e"], f"{where}.tono.e", minimum=0)
            bundle = tono_family(a, e).bundle
    except FileFormatError:
        raise
    except ValuationError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc

    if kind != "tono":
        bundle = valuation_bundle(cfg)
    # The entry as written, less its null values and a trailing_free of 0.
    payload = {
        k: v for k, v in raw.items() if v is not None and (k, v) != ("trailing_free", 0)
    }
    return ValuationEntry(payload, bundle)


def parse(text: str) -> ValuationFile:
    """Parse and fully validate a valuation file."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FileFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise FileFormatError("top level: expected an object")
    unknown = set(data) - {"valuations", "aligned_mu"}
    if unknown:
        raise FileFormatError(f"top level: unknown keys {sorted(unknown)}")
    raw_entries = data.get("valuations")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise FileFormatError('top level: "valuations" must be a non-empty list')
    entries = tuple(
        _parse_entry(raw, f"valuations[{i}]") for i, raw in enumerate(raw_entries)
    )
    aligned_mu = data.get("aligned_mu")
    if aligned_mu is not None:
        aligned_mu = _require_int(aligned_mu, "aligned_mu", minimum=1)
    return ValuationFile(entries=entries, aligned_mu=aligned_mu)


def parse_path(path: str | Path) -> ValuationFile:
    """Parse the file at ``path``, reading at most MAX_FILE_BYTES + 1 bytes."""
    with open(path, "rb") as file:
        # One read of the stated size plus a byte that shows growth; a pipe or
        # a device states 0, and what is left is read up to the limit.
        size = os.fstat(file.fileno()).st_size
        data = file.read(min(size, MAX_FILE_BYTES) + 1)
        if len(data) > size:
            data += file.read(MAX_FILE_BYTES + 1 - len(data))
    if len(data) > MAX_FILE_BYTES:
        shown = size if size > MAX_FILE_BYTES else f"more than {MAX_FILE_BYTES}"
        raise FileFormatError(
            f"{path}: {shown} bytes is above the limit of {MAX_FILE_BYTES} bytes"
        )
    # Decoded as Path.read_text decodes; the bytes are dropped before parsing.
    data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return parse(data)


def serialize(vf: ValuationFile) -> str:
    """Canonical JSON for a valuation file; ``parse`` inverts it exactly."""
    data: dict[str, Any] = {"valuations": [entry.payload for entry in vf.entries]}
    if vf.aligned_mu is not None:
        data["aligned_mu"] = vf.aligned_mu
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


__all__ = ["ValuationEntry", "ValuationFile", "parse", "parse_path", "serialize"]
