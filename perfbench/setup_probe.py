"""Set-up of one workload in a fresh process, for the benchmark's ``setup_s``.

Times the import of btauthsim, the construction of the workload's
configurations and ``cli.validate`` of each (which includes the group
check), and gauges the machine's speed with the reference kernel right
before and after; prints ``ready <host seconds> <slowdown>``. The
interpreter's start-up and the standard-library modules that the kernel
shares with btauthsim are loaded before the timer starts: they are no work
of the program, and they vary more than the rest.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import reference

# reference kernel units gauged before and after the set-up
GAUGE_UNITS = 30


def main() -> int:
    before = reference.slowdown(GAUGE_UNITS)
    began = time.perf_counter()
    # the timed import of btauthsim
    from workloads import build, validate

    workload = build(sys.argv[1])
    for config in workload.configs:
        validate(config)
    seconds = time.perf_counter() - began
    after = reference.slowdown(GAUGE_UNITS)
    print(f"ready {seconds!r} {(before + after) / 2!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
