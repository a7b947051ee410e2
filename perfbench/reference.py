"""Fixed reference kernel that gauges the speed of the machine around each run.

On a shared host the speed available to one process changes from one
millisecond to the next and drifts by tens of per cent over tens of seconds,
which would bury any change to the program. The benchmark therefore runs
this kernel before and after every scenario run and expresses the run's
time in reference time: its host time divided by how much slower than
nominal the kernel ran around it. The kernel does the kind of work the
simulator's hot path does (a seeded ``random.Random``, 64-bit lane mixing
over ``struct`` blocks, frozen dataclasses with a check, a heap, JSON lines
of hex payloads) but calls no code of the program, so a change to the
program moves reference times as it would move host times on a machine
running at constant speed.
"""

import heapq
import json
import random
import struct
import time
from dataclasses import dataclass

_MASK64 = 0xFFFFFFFFFFFFFFFF

# nominal duration of one unit(); a reference second is the time in which
# the kernel runs 1e9 / NOMINAL_UNIT_NS units
NOMINAL_UNIT_NS = 50_000
# units per gauge reading
UNITS = 3


@dataclass(frozen=True)
class _Item:
    digest: bytes
    rank: int

    def __post_init__(self):
        if len(self.digest) != 16:
            raise ValueError("digest must be 16 octets")


def unit() -> str:
    rng = random.Random(12345)
    heap = []
    for i in range(3):
        s0, s1 = 0x736F6D6570736575, 0x646F72616E646F6D
        for (m,) in struct.iter_unpack("<Q", rng.randbytes(40)):
            x = s0 ^ m
            s0 = ((((x << 13) & _MASK64) | (x >> 51)) * 0x9E3779B97F4A7C15) & _MASK64
            s1 = ((s1 + s0) & _MASK64) ^ (((s1 << 32) & _MASK64) | (s1 >> 32))
        heapq.heappush(heap, (i * 7 % 5, i, _Item(struct.pack("<QQ", s0, s1), i)))
    lines = []
    while heap:
        item = heapq.heappop(heap)[2]
        record = {"seq": item.rank, "kind": "challenge", "payload": item.digest.hex()}
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines)


def slowdown(units: int = UNITS) -> float:
    """How many times slower than nominal the kernel runs right now."""
    began = time.perf_counter_ns()
    for _ in range(units):
        unit()
    return (time.perf_counter_ns() - began) / (units * NOMINAL_UNIT_NS)
