#!/usr/bin/env python3
"""Sweep the unicuspidal example family and watch the bounds tighten.

For each (a, e) the table shows the certified Seshadri-type constant, its
upper bound, and their ratio (which tends to 1 as a grows), plus the
self-intersection ratio of the family curve against the negativity bound
-(e+1) (their gap also shrinks).  Each member costs O(runs), not O(points),
so the sweep reaches a = 60 (about 5 * 10^7 points at e = 3) at once.
"""

import argparse
from fractions import Fraction

from valuation_lab.bounds import lambda_lower_bound, multi_valuation, tono_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a-max", type=int, default=12)
    parser.add_argument("--e-max", type=int, default=3)
    args = parser.parse_args()

    header = (
        f"{'a':>3} {'e':>3} {'n':>11} {'mu_hat':>16} {'bound':>7} "
        f"{'bound/mu_hat':>13} {'curve ratio':>12} {'lambda bound':>13} "
        f"{'gap':>10}"
    )
    for e in range(args.e_max + 1):
        print(header)
        for a in range(3, args.a_max + 1):
            fam = tono_family(a, e)
            mv = multi_valuation([fam.bundle], aligned_mu=2)
            lam = lambda_lower_bound(mv)
            ratio = Fraction(fam.mu_hat_bound) / fam.mu_hat
            gap = fam.ratio - lam
            print(
                f"{a:>3} {e:>3} {fam.bundle.cfg.size:>11} "
                f"{str(fam.mu_hat):>16} {fam.mu_hat_bound:>7} "
                f"{float(ratio):>13.6f} {float(fam.ratio):>12.6f} "
                f"{lam:>13} {float(gap):>10.6f}"
            )
        print()


if __name__ == "__main__":
    main()
