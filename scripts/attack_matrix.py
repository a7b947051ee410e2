#!/usr/bin/env python3
"""Run every headline scenario across a block of seeds and tabulate verdicts.

Each row aggregates one (variant, intruder) pair: a field shows its value
when every seed agrees and ``mixed`` otherwise. Exit status is 0 only if
no field came out mixed.
"""

import argparse
import sys
import time

from btauthsim.cli import HEADLINE, run_scenario

COLUMNS = ["scenario", "seeds", "success", "integrity", "confidentiality", "detection", "messages"]


def collapse(values: list[str]) -> str:
    unique = set(values)
    return values[0] if len(unique) == 1 else "mixed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="seeds per scenario (default 20)")
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    if args.base_seed < 0:
        parser.error(f"--base-seed must be non-negative, got {args.base_seed}")

    started = time.perf_counter()
    rows = []
    for config in HEADLINE:
        fields: dict[str, list[str]] = {name: [] for name in COLUMNS[2:]}
        for offset in range(args.seeds):
            result = run_scenario(config, args.base_seed + offset)
            score = result.score
            fields["success"].append("true" if score.attack_success else "false")
            fields["integrity"].append(score.integrity.value)
            fields["confidentiality"].append(score.confidentiality.value)
            fields["detection"].append(score.detection.value)
            fields["messages"].append(str(len(result.transcript.events)))
        rows.append(
            [config.scenario_name, str(args.seeds)]
            + [collapse(fields[name]) for name in COLUMNS[2:]]
        )

    widths = [max(len(row[i]) for row in [COLUMNS] + rows) for i in range(len(COLUMNS))]
    for row in [COLUMNS] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())

    elapsed = time.perf_counter() - started
    print(f"\n{len(rows)} scenarios x {args.seeds} seeds in {elapsed:.2f}s")
    return 1 if any("mixed" in row for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
