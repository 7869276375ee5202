"""The paper's mu-hat and ratio bounds on a second family with exact mu-hat.

For coprime 1 <= a < d the monomial curve C: y^a z^(d-a) = x^d is an
integral plane curve of degree d.  At [0:0:1] its branch is x = s^a,
y = s^d, with contact values (a, d), and the valuation is that of
``from_maximal_contact((a, d), T)``: the points of C's resolution, then T
free points along C.  C passes through every centre with its multiplicity,
so nu(C) = a d + T, and its tangent line y = 0 meets it there with
multiplicity d, so t = d.  The tangent segment is d points for a = 1, a run
of ones, and ``max_tangent_count`` otherwise.  When a d + T > d^2 the curve
certifies mu-hat = (a d + T) / d exactly, and the bounds are checked against
that value.
"""

import dataclasses
from fractions import Fraction
from math import gcd

from valuation_lab.bounds import supraminimal_certificate, valuation_bundle
from valuation_lab.checks import identity_checks
from valuation_lab.configurations import max_tangent_count
from valuation_lab.invariants import from_maximal_contact


def monomial_grid():
    """(a, d, T) for d = 2..29, every a coprime to d, and seven tails T on
    both sides of the certificate's threshold a d + T > d^2."""
    for d in range(2, 30):
        for a in range(1, d):
            if gcd(a, d) == 1:
                tails = (0, 1, d * (d - a), d * (d - a) + 1, d * d, 5 * d * d + 3)
                for T in (*tails, 10**6):
                    yield a, d, T


def monomial_bundle(a, d, T):
    cfg = from_maximal_contact((a, d), T)
    k = d if a == 1 else max_tangent_count(cfg)
    return valuation_bundle(dataclasses.replace(cfg, tangent_count=k))


def test_bounds_hold_against_the_exact_mu_hat():
    """Over 1,883 members, 1,076 certify mu-hat.  On each of those mu-hat is
    at most the upper bound, by at least d - a (with equality on one member
    of the grid), and the ratio bound is at most C's (d^2 - nu(C)) / d^2.
    Every identity row passes on every member."""
    members = certified = tight = 0
    for a, d, T in monomial_grid():
        bundle = monomial_bundle(a, d, T)
        members += 1
        nu = a * d + T
        assert bundle.record.tangent_value == d, (a, d, T)
        assert bundle.record.beta_bar[-1] == nu, (a, d, T)
        assert all(r.passed for r in identity_checks(bundle)), (a, d, T)
        mu_hat = supraminimal_certificate(bundle.cfg, nu, d)
        assert (mu_hat is not None) == (nu > d * d), (a, d, T)
        if mu_hat is None:
            continue
        certified += 1
        bound = bundle.mu_hat_bound
        assert bound - mu_hat >= d - a, (a, d, T, bound, mu_hat)
        assert bundle.ratio_bound <= Fraction(d * d - nu, d * d), (a, d, T)
        tight += bound - mu_hat == d - a
    assert (members, certified, tight) == (1883, 1076, 1)
