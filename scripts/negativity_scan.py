#!/usr/bin/env python3
"""How much does the dual-graph negativity bound beat the point count?

Fuzzes random configurations and histograms the improvement of the
combinatorial bound over the trivial one (1 - n), printing the chain with
the largest improvement found.
"""

import argparse
from collections import Counter

from valuation_lab.bounds import combinatorial_lambda_bound
from valuation_lab.checks import trial_rng, random_configuration


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--max-points", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    improvements: Counter[int] = Counter()
    best = None
    for trial in range(args.trials):
        cfg = random_configuration(trial_rng(args.seed, trial), args.max_points)
        if cfg.size < 2:
            continue
        improvement = combinatorial_lambda_bound(cfg) - (1 - cfg.size)
        improvements[improvement] += 1
        if best is None or improvement > best[0]:
            best = (improvement, cfg)

    total = sum(improvements.values())
    print(f"{total} configurations with at least two points")
    for improvement in sorted(improvements):
        count = improvements[improvement]
        bar = "#" * max(1, round(60 * count / total))
        print(f"  +{improvement:<4} {count:>6}  {bar}")
    if best is not None:
        improvement, cfg = best
        print(f"\nlargest improvement +{improvement} on n={cfg.size}:")
        print(f"  proximity lists: {cfg.proximity_lists()}")
        print(f"  combinatorial bound: {combinatorial_lambda_bound(cfg)}")
        print(f"  trivial bound: {1 - cfg.size}")


if __name__ == "__main__":
    main()
