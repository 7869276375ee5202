"""The plain value records are NamedTuples; three types stay dataclasses.

Each record keeps the field order it had as a frozen dataclass, so
positional construction is unchanged, and it stays immutable, hashable
and comparable by value.  The dataclasses left are exactly the types that
need a feature a NamedTuple lacks.

The package exports what its math modules list in ``__all__`` and nothing
more, so each public name is declared once.
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import pytest

import valuation_lab
from strategies import MATH_MODULES

RECORDS = {
    ("bounds", "ValuationBundle"): ("cfg", "record", "delta0"),
    ("bounds", "MultiValuation"): ("bundles", "aligned_mu"),
    ("bounds", "BoundReport"): (
        "degree_bound",
        "mu_hat_upper_bound",
        "ratio_bound",
        "combinatorial_lambda_bound",
        "trivial_lambda_bound",
    ),
    ("bounds", "TailComparison"): ("delta0_before", "delta0_after", "difference"),
    ("bounds", "TonoValuation"): (
        "a",
        "e",
        "bundle",
        "curve_degree",
        "curve_value",
        "mu_hat",
        "ratio",
        "trailing_free",
    ),
    ("checks", "CheckResult"): ("name", "passed", "detail"),
    ("checks", "FuzzFailure"): (
        "trial",
        "proximity",
        "tangent_count",
        "check",
        "detail",
    ),
    ("checks", "FuzzSummary"): (
        "max_points",
        "trials",
        "seed",
        "checks_passed",
        "checks_failed",
        "first_failure",
    ),
    ("configurations", "RunStructure"): (
        "ends",
        "stretches",
        "boundaries",
        "last_free_indices",
    ),
    ("invariants", "MultiplicityVector"): ("runs",),
    ("invariants", "InvariantRecord"): (
        "multiplicities",
        "beta_bar",
        "gcd_chain",
        "run_length_tables",
        "ratios",
        "tangent_value",
        "is_m_adic",
    ),
    ("surface", "NpiResult"): ("non_positive_at_infinity", "witness"),
    ("surface", "GeneratorPairing"): ("name", "value"),
    ("valfile", "ValuationEntry"): ("payload", "bundle"),
    ("valfile", "ValuationFile"): ("entries", "aligned_mu"),
}

# The three each need what a NamedTuple lacks: a __dict__ for cached_property
# (Configuration) or __post_init__ coercion and checks (HirzebruchClass,
# AffinePolynomial).
DATACLASSES = {
    ("configurations", "Configuration"),
    ("surface", "HirzebruchClass"),
    ("surface", "AffinePolynomial"),
}


def _modules():
    """Every module of the package, as (name, module)."""
    for info in pkgutil.iter_modules(valuation_lab.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        yield info.name, importlib.import_module(f"valuation_lab.{info.name}")


def _classes():
    """Every class defined in a module of the package, as (module, name, cls)."""
    for module_name, module in _modules():
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield module_name, name, cls


def _record(key):
    module, name = key
    return getattr(importlib.import_module(f"valuation_lab.{module}"), name)


def _sample(cls, offset=0):
    """A value for every field: distinct hashable placeholders."""
    return cls(*range(offset, offset + len(cls._fields)))


params = pytest.mark.parametrize(
    "key", list(RECORDS), ids=[name for _, name in RECORDS]
)


@params
def test_fields_keep_the_dataclass_order(key):
    cls = _record(key)
    fields = RECORDS[key]
    assert cls._fields == fields
    values = [f"{field}-value" for field in fields]
    assert cls(*values) == cls(**dict(zip(fields, values)))


def test_only_check_result_has_a_default():
    defaults = {key: _record(key)._field_defaults for key in RECORDS}
    assert {key: d for key, d in defaults.items() if d} == {
        ("checks", "CheckResult"): {"detail": ""}
    }


@params
def test_records_are_immutable(key):
    record = _sample(_record(key))
    with pytest.raises(AttributeError):
        setattr(record, RECORDS[key][0], -1)
    with pytest.raises(AttributeError):
        record.unknown_attribute = -1


@params
def test_equal_values_give_equal_hashes(key):
    cls = _record(key)
    a, b = _sample(cls), _sample(cls)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert a != _sample(cls, offset=1)


@params
def test_repr_names_every_field(key):
    cls = _record(key)
    record = _sample(cls)
    shown = ", ".join(f"{field}={i}" for i, field in enumerate(RECORDS[key]))
    assert repr(record) == f"{cls.__name__}({shown})"


@params
def test_replace_returns_a_new_instance(key):
    cls = _record(key)
    record = _sample(cls)
    field = RECORDS[key][-1]
    changed = record._replace(**{field: "new"})
    assert type(changed) is cls
    assert getattr(changed, field) == "new"
    assert record == _sample(cls)
    assert changed[:-1] == record[:-1]


def test_the_kept_dataclasses_are_exactly_the_three():
    classes = list(_classes())
    assert {
        (module, name) for module, name, cls in classes
        if dataclasses.is_dataclass(cls)
    } == DATACLASSES
    named_tuples = {
        (module, name) for module, name, cls in classes
        if issubclass(cls, tuple) and hasattr(cls, "_fields")
    }
    assert named_tuples == set(RECORDS)


def test_every_exported_name_resolves():
    """A name left in ``__all__`` by a deletion fails only on ``import *``."""
    stale = [
        f"{module_name}.{name}"
        for module_name, module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []


def test_the_package_exports_exactly_its_math_modules_all():
    code = (
        "import json, sys, valuation_lab; print(json.dumps(["
        "[n for n in dir(valuation_lab) if not n.startswith('_')], "
        "[m for m in sys.modules if m.startswith('valuation_lab.')]]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    names, loaded = json.loads(done.stdout)
    assert {m.removeprefix("valuation_lab.") for m in loaded} == MATH_MODULES
    modules = [importlib.import_module(f"valuation_lab.{m}") for m in MATH_MODULES]
    assert all("__all__" in vars(module) for module in modules)
    exported = set().union(*(module.__all__ for module in modules))
    assert sorted(names) == sorted(exported | MATH_MODULES)
