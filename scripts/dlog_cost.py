#!/usr/bin/env python3
"""Measure the brute-force discrete-log cost in the multiplicative group mod p.

Z_p^* has order p-1, which is even and so composite for every prime p
above 3: the group is not of prime order, and its generator has order p-1.

Draws random exponents, recovers each from its public value by linear
scan, and reports the mean iteration count next to the (p-1)/2 expected
value for a uniform exponent. The gap between this cost at toy sizes and
at real key sizes is the whole security argument for the key-agreement
hardening, so the script prints both the measurement and the projection.
"""

import argparse
import statistics
import sys
import time

from btauthsim.adversary import dlog_bruteforce
from btauthsim.cli import ConfigError, check_group
from btauthsim.crypto import dh_keypair
from btauthsim.draw import Stream, draw_exponent


def measure(params, trials: int, seed: int) -> tuple[list[int], float]:
    """The scan's iteration count for each of trials exponents drawn from
    Stream(seed) by draw_exponent, and the seconds the scans took. Raises
    RuntimeError if a scan recovers another exponent than was drawn."""
    rng = Stream(seed)
    costs = []
    started = time.perf_counter()
    for _ in range(trials):
        r = draw_exponent(rng, params.p)
        recovered, iterations = dlog_bruteforce(params, dh_keypair(params, r).s_public)
        if recovered != r:
            raise RuntimeError(f"recovered {recovered}, expected {r}")
        costs.append(iterations)
    return costs, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dh-p", type=int, default=10007)
    parser.add_argument("--dh-alpha", type=int, default=5)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    # a usage error here, where Stream would raise ValueError
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    # the scan is linear in the exponent, so it keeps to the simulator's
    # groups; a non-generator leaves exponents that share a public value, so
    # the scan would recover a smaller one than was drawn
    try:
        params = check_group(args.dh_p, args.dh_alpha)
    except ConfigError as err:
        parser.error(str(err))

    costs, elapsed = measure(params, args.trials, args.seed)
    expected = (params.p - 1) / 2
    mean = statistics.fmean(costs)
    per_iter = elapsed / sum(costs)

    print(f"group: p={params.p} alpha={params.alpha}")
    print(f"trials: {args.trials}, all exponents recovered exactly")
    print(f"mean iterations: {mean:.1f} (expected ~{expected:.1f}, ratio {mean / expected:.3f})")
    print(f"min/median/max: {min(costs)}/{statistics.median(costs):.0f}/{max(costs)}")
    print(f"wall time: {elapsed:.3f}s ({per_iter * 1e9:.1f} ns per candidate)")

    # same scan against a 2^127-order group, at the measured per-candidate rate
    projected_years = per_iter * (2 ** 126) / (365.25 * 24 * 3600)
    print(f"projected mean time at p ~ 2^127: {projected_years:.2e} years")
    return 0


if __name__ == "__main__":
    sys.exit(main())
