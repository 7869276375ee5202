"""Derive once: each configuration's invariants are computed once and passed along.

The counters wrap ``invariant_record`` and ``multiplicity_sequence`` (and,
where a test asks, ``multi_valuation``) and rebind every attribute of every
loaded ``valuation_lab`` module that holds them, since the other modules
import them by name.
"""

import pytest

from strategies import rebind
from test_golden_reports import EXAMPLE_FILE
from valuation_lab import bounds, configurations, invariants, valfile
from valuation_lab.bounds import (
    bound_report,
    degree_lower_bound,
    tono_family,
    valuation_bundle,
)
from valuation_lab.checks import identity_checks
from valuation_lab.cli import main
from valuation_lab.configurations import build_configuration
from valuation_lab.reports import bounds_payload, invariants_payload
from valuation_lab.valfile import ValuationEntry

COUNTED = ("invariant_record", "multiplicity_sequence")

SMALL = [
    build_configuration([[]]),
    build_configuration([[], [1]]),
    build_configuration([[], [1], [2, 1], [3, 1], [4]], tangent_count=2),
]


@pytest.fixture
def calls(monkeypatch):
    """Per counted function, the sizes of the configurations it was called on."""
    log = {name: [] for name in COUNTED}
    for name in COUNTED:
        original = getattr(invariants, name)

        def counted(cfg, _original=original, _sizes=log[name]):
            _sizes.append(cfg.size)
            return _original(cfg)

        rebind(monkeypatch, original, counted)
    return log


def _reset(log):
    for sizes in log.values():
        sizes.clear()


@pytest.mark.parametrize("cfg", SMALL + [None], ids=["1pt", "2pt", "satellite", "tono"])
def test_report_and_payload_read_the_bundle(calls, cfg):
    bundle = tono_family(3, 0).bundle if cfg is None else valuation_bundle(cfg)
    entry = ValuationEntry({}, bundle)
    _reset(calls)
    bound_report(bundle)
    invariants_payload(entry)
    bounds_payload(entry)
    assert calls == {name: [] for name in COUNTED}


def test_tono_family_and_report_build_the_full_chain_once(calls):
    family = tono_family(4, 1)
    bound_report(family.bundle)
    size = family.bundle.cfg.size
    assert calls["invariant_record"].count(size) == 1
    assert calls["multiplicity_sequence"].count(size) == 0


@pytest.mark.parametrize("cfg", SMALL + [None], ids=["1pt", "2pt", "satellite", "tono"])
def test_identity_checks_build_at_most_two_records(calls, cfg):
    cfg = tono_family(3, 0).bundle.cfg if cfg is None else cfg
    _reset(calls)
    results = identity_checks(valuation_bundle(cfg))
    assert all(r.passed for r in results)
    assert len(calls["invariant_record"]) <= 2


# (command, file, sizes of its entries): a tono entry, and the example
# file's proximity (3 points), contact (17) and tono (362) entries.
VERBS = ["invariants", "bounds", "check"]
TONO_FILE = '{"valuations": [{"tono": {"a": 5, "e": 1}}]}'
FILE_RUNS = [(verb, TONO_FILE, [962]) for verb in VERBS] + [
    (verb, EXAMPLE_FILE, [3, 17, 362]) for verb in VERBS
]


@pytest.mark.parametrize(
    "command, text, sizes", FILE_RUNS, ids=VERBS + [f"{v}-example" for v in VERBS]
)
def test_tono_file_entry_is_built_once(
    calls, monkeypatch, tmp_path, capsys, command, text, sizes
):
    path = tmp_path / "valuations.json"
    path.write_text(text, encoding="utf-8")
    at_parse = []
    original = valfile.parse

    def marked(text):
        vf = original(text)
        at_parse.append(list(calls["invariant_record"]))
        return vf

    rebind(monkeypatch, original, marked)
    _reset(calls)
    assert main([command, str(path)]) == 0
    # Parsing records each entry once (tono_family records a tono chain, and
    # building it from the contact values records nothing); the command
    # reads each entry's bundle and records nothing more.
    assert at_parse == [sizes]
    assert calls["invariant_record"] == sizes


@pytest.mark.parametrize(
    "contact, trailing",
    [((4, 6, 13), 3), ((20, 25, 136), 0)],
    ids=["two-blocks", "tono-5-1-prefix"],
)
def test_from_maximal_contact_builds_no_record(calls, contact, trailing):
    cfg = invariants.from_maximal_contact(contact, trailing_free=trailing)
    assert cfg.size > len(contact)
    assert calls == {name: [] for name in COUNTED}


@pytest.mark.parametrize("cfg", SMALL + [None], ids=["1pt", "2pt", "satellite", "tono"])
def test_identity_checks_list_no_multiplicity_sequence(calls, cfg):
    """The round trip compares the rebuilt chain's runs, so the suite reads
    the multiplicities off its one record and pushes no chain for them."""
    cfg = tono_family(3, 0).bundle.cfg if cfg is None else cfg
    _reset(calls)
    assert all(r.passed for r in identity_checks(valuation_bundle(cfg)))
    assert calls["multiplicity_sequence"] == []


@pytest.mark.parametrize("cfg", SMALL + [None], ids=["1pt", "2pt", "satellite", "tono"])
def test_bound_report_builds_no_ensemble(monkeypatch, cfg):
    bundle = tono_family(3, 0).bundle if cfg is None else valuation_bundle(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("bound_report built an ensemble")

    rebind(monkeypatch, bounds.multi_valuation, refuse)
    report = bound_report(bundle)
    assert report.mu_hat_upper_bound == bundle.mu_hat_bound


def test_bounds_builds_one_ensemble_per_file(monkeypatch, tmp_path):
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_FILE, encoding="utf-8")
    ensembles = []
    original = bounds.multi_valuation

    def counted(bundles, aligned_mu=None):
        ensembles.append(len(bundles))
        return original(bundles, aligned_mu)

    rebind(monkeypatch, original, counted)
    assert main(["bounds", str(path)]) == 0
    # The file's three valuations, once; no report builds its own.
    assert ensembles == [3]


@pytest.mark.parametrize("cfg", SMALL + [None], ids=["1pt", "2pt", "satellite", "tono"])
def test_degree_bound_checks_the_length_before_any_record(calls, cfg):
    cfg = tono_family(3, 0).bundle.cfg if cfg is None else cfg
    _reset(calls)
    for m in ((1,) * (cfg.size + 1), (1,) * (cfg.size - 1)):
        with pytest.raises(ValueError, match=f"expected {cfg.size} multiplicities"):
            degree_lower_bound(cfg, m)
    assert calls == {name: [] for name in COUNTED}


# One entry of each encoding, unnamed and named.
ENCODINGS = {
    "tono": '{"tono": {"a": 5, "e": 1}}',
    "proximity": '{"proximity": [[], [1], [2, 1]]}',
    "contact": '{"maximal_contact": [6, 9, 34], "trailing_free": 6}',
}
ENTRIES = [
    (f"{kind}-{named}", entry if named == "unnamed" else '{"name": "x", ' + entry[1:])
    for kind, entry in ENCODINGS.items()
    for named in ("unnamed", "named")
]


@pytest.mark.parametrize("command", VERBS)
@pytest.mark.parametrize("entry", [e for _, e in ENTRIES], ids=[i for i, _ in ENTRIES])
def test_each_entry_derives_one_run_structure(monkeypatch, tmp_path, command, entry):
    """A name is the entry's, not the chain's, so naming an entry rebuilds
    no configuration and derives its structure no second time.  A proximity
    entry's build seeds the structure from the stretches it validated, so
    it derives none; a contact or tono entry derives one from its runs."""
    path = tmp_path / "valuations.json"
    path.write_text('{"valuations": [%s]}' % entry, encoding="utf-8")
    structures = []
    original = configurations.run_structure

    def counted(runs):
        structures.append(runs)
        return original(runs)

    monkeypatch.setattr(configurations, "run_structure", counted)
    assert main([command, str(path)]) == 0
    assert len(structures) == (0 if "proximity" in entry else 1)


@pytest.mark.parametrize("entry", ENCODINGS.values(), ids=list(ENCODINGS))
def test_one_chain_under_two_names_is_one_configuration(entry):
    text = '{"valuations": [%s, %s]}' % (
        '{"name": "x", ' + entry[1:], '{"name": "y", ' + entry[1:]
    )
    first, second = valfile.parse(text).entries
    assert (first.payload["name"], second.payload["name"]) == ("x", "y")
    assert first.bundle.cfg == second.bundle.cfg
    assert first.bundle == second.bundle
