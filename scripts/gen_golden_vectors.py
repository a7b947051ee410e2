#!/usr/bin/env python3
"""Regenerate (or check) the frozen primitive-layer vectors.

Each row is ``name,input_hex...,output_hex`` with a variable number of
input fields; the last field is always the output. Integer inputs are
recorded as 16-octet big-endian strings. Run with ``--check`` to verify
the committed file without rewriting it; a stale file is reported with a
diff of the committed lines against the generated ones.
"""

import argparse
import difflib
import sys
from pathlib import Path

from btauthsim import crypto
from btauthsim.crypto import (
    DhParams,
    combination_link_key,
    init_key,
    mixhash128,
    session_key_from_shared,
)

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "tests" / "vectors" / "golden_vectors.txt"

HEADER = """\
# Frozen outputs for the primitive layer. Regenerate with
# scripts/gen_golden_vectors.py; any diff against this file is a
# compatibility break. Fields are comma-separated lowercase hex with
# the output last; integers appear as 16-octet big-endian.
"""


ZERO16, ZERO6, ONES = bytes(16), bytes(6), b"\xff" * 16
ADDR_A, ADDR_B = bytes.fromhex("aa0000000001"), bytes.fromhex("bb0000000002")

# (name, function, *inputs): each row is the inputs and the function's output
ROWS = [
    ("mixhash_empty", mixhash128, b""),
    ("mixhash_single_zero", mixhash128, b"\x00"),
    ("mixhash_single_one", mixhash128, b"\x01"),
    ("mixhash_ascii_abc", mixhash128, b"abc"),
    ("mixhash_bytes_0_7", mixhash128, bytes(range(8))),
    ("mixhash_bytes_0_15", mixhash128, bytes(range(16))),
    # the full digest of e1's message (key, challenge, claimant): e1's
    # response is its first 4 octets
    ("e1_all_zero", lambda *triple: mixhash128(crypto._TAG_AUTH + b"".join(triple)),
     ZERO16, ZERO16, ZERO6),
    ("init_key_pin_0000", init_key, b"0000", ZERO6, ZERO16),
    ("init_key_pin_00000", init_key, b"00000", ZERO6, ZERO16),
    ("combination_link_key", combination_link_key, b"\x11" * 16, ADDR_A, b"\x22" * 16, ADDR_B),
    # all-ones contributions carry out of every 64-bit lane of the digest
    ("combination_link_key_all_ff", combination_link_key, ONES, ADDR_A, ONES, ADDR_B),
    # the key reads the shared value and the modulus, not the generator
    ("session_key_k2_p23", lambda k, p: session_key_from_shared(k, DhParams(p=p, alpha=5)), 2, 23),
]


def hex_field(value: bytes | int) -> str:
    return (value.to_bytes(16, "big") if isinstance(value, int) else value).hex()


def build_rows() -> list[tuple[str, ...]]:
    return [
        (name, *map(hex_field, inputs), function(*inputs).hex())
        for name, function, *inputs in ROWS
    ]


def render(rows: list[tuple[str, ...]]) -> str:
    return HEADER + "".join(",".join(row) + "\n" for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true", help="verify instead of rewriting")
    parser.add_argument("--path", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    content = render(build_rows())
    if args.check:
        if not args.path.exists():
            print(f"missing: {args.path}", file=sys.stderr)
            return 1
        committed = args.path.read_text()
        if committed != content:
            for line in difflib.unified_diff(
                committed.splitlines(), content.splitlines(), str(args.path), "generated",
                lineterm="",
            ):
                print(line, file=sys.stderr)
            print(f"stale: {args.path}", file=sys.stderr)
            return 1
        print(f"ok: {args.path}")
        return 0

    args.path.parent.mkdir(parents=True, exist_ok=True)
    args.path.write_text(content)
    print(f"wrote {args.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
