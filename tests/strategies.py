"""Hypothesis strategies, chain enumerations, point-level references, the
list of math modules and the rebinding of a library function, shared across
the test modules."""

import sys
from fractions import Fraction

from hypothesis import strategies as st

from valuation_lab.configurations import build_configuration, max_tangent_count

# The modules ``import valuation_lab`` loads and re-exports; the report
# layer (checks, reports, valfile, cli) is imported by name.
MATH_MODULES = {"bounds", "configurations", "errors", "invariants", "surface"}


def rebind(monkeypatch, original, replacement):
    """Replace every binding of ``original`` in the loaded ``valuation_lab``
    modules, since the modules import what they call by name."""
    for name, module in list(sys.modules.items()):
        if name == "valuation_lab" or name.startswith("valuation_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@st.composite
def proximity_chains(draw, max_points: int = 12, min_points: int = 1):
    """Random admissible proximity lists, each sorted ascending, with a random
    valid tangent count: the input a configuration is built from, for tests
    that compare its per-point views with what was drawn."""
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    prox: list[list[int]] = [[]]
    for i in range(2, n + 1):
        targets = [i - 1]
        if i >= 3 and draw(st.booleans()):
            targets.append(draw(st.sampled_from(sorted(prox[i - 2]))))
        prox.append(sorted(targets))
    if n == 1:
        return prox, 1
    draft = build_configuration(prox)
    tangent = draw(st.integers(min_value=2, max_value=max_tangent_count(draft)))
    return prox, tangent


@st.composite
def configurations(draw, max_points: int = 12, min_points: int = 1):
    """Random admissible configuration with a random valid tangent segment."""
    prox, tangent = draw(proximity_chains(max_points, min_points))
    return build_configuration(prox, tangent_count=tangent)


def all_chains(max_points):
    """Every chain of at most ``max_points`` points, as sorted proximity
    lists: each point p_i (i >= 2) is free, or a satellite whose older target
    is one of the targets of p_{i-1}."""

    def grow(lists):
        yield lists
        if len(lists) < max_points:
            i = len(lists) + 1
            yield from grow([*lists, [i - 1]])
            for older in lists[-1]:
                yield from grow([*lists, [older, i - 1]])

    return grow([[]])


def proximate_points(cfg):
    """Entry i lists the points proximate to p_i, ascending: p_{i+1}, then
    the satellites whose older target is p_i; 1-based, entry 0 unused.
    The pull-form reference, listed from ``cfg.older`` on each call."""
    older = cfg.older
    incoming = [[], *[[i + 1] for i in range(1, len(older) - 1)], []]
    for j, target in enumerate(older):
        if target:
            incoming[target].append(j)
    return incoming


def continued_fraction(digits):
    """[d_0; d_1, ..., d_k] folded in Fraction arithmetic, independent of the
    record's integer fold."""
    value = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        value = d + 1 / value
    return value
