#!/usr/bin/env python3
"""Regenerate (or check) the frozen primitive-layer vectors.

Each row is ``name,input_hex...,output_hex`` with a variable number of
input fields; the last field is always the output. Integer inputs are
recorded as 16-octet big-endian strings. Run with ``--check`` to verify
the committed file without rewriting it.
"""

import argparse
import sys
from pathlib import Path

from btauthsim.crypto import (
    DhParams,
    combination_link_key,
    e1,
    e1_aco,
    encryption_key,
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


def build_rows() -> list[tuple[str, ...]]:
    rows: list[tuple[str, ...]] = []

    for name, data in [
        ("mixhash_empty", b""),
        ("mixhash_single_zero", b"\x00"),
        ("mixhash_single_one", b"\x01"),
        ("mixhash_ascii_abc", b"abc"),
        ("mixhash_bytes_0_7", bytes(range(8))),
        ("mixhash_bytes_0_15", bytes(range(16))),
    ]:
        rows.append((name, data.hex(), mixhash128(data).hex()))

    zero_key = b"\x00" * 16
    zero_rand = b"\x00" * 16
    zero_addr = b"\x00" * 6
    sres = e1(zero_key, zero_rand, zero_addr)
    aco = e1_aco(zero_key, zero_rand, zero_addr)
    rows.append(
        (
            "e1_all_zero",
            zero_key.hex(),
            zero_rand.hex(),
            zero_addr.hex(),
            sres.hex() + aco.hex(),
        )
    )

    for name, pin in [("init_key_pin_0000", b"0000"), ("init_key_pin_00000", b"00000")]:
        key = init_key(pin, zero_addr, zero_rand)
        rows.append((name, pin.hex(), zero_addr.hex(), zero_rand.hex(), key.hex()))

    ra, rb = b"\x11" * 16, b"\x22" * 16
    addr_a = bytes.fromhex("aa0000000001")
    addr_b = bytes.fromhex("bb0000000002")
    combined = combination_link_key(ra, addr_a, rb, addr_b)
    rows.append(
        (
            "combination_link_key",
            ra.hex(),
            addr_a.hex(),
            rb.hex(),
            addr_b.hex(),
            combined.hex(),
        )
    )
    # all-ones contributions carry out of every 64-bit lane of the digest
    ones = b"\xff" * 16
    combined = combination_link_key(ones, addr_a, ones, addr_b)
    rows.append(
        (
            "combination_link_key_all_ff",
            ones.hex(),
            addr_a.hex(),
            ones.hex(),
            addr_b.hex(),
            combined.hex(),
        )
    )

    zero_aco = b"\x00" * 12
    enc = encryption_key(zero_key, zero_aco, zero_rand)
    rows.append(
        (
            "encryption_key_all_zero",
            zero_key.hex(),
            zero_aco.hex(),
            zero_rand.hex(),
            enc.hex(),
        )
    )

    params = DhParams(p=23, alpha=5)
    session = session_key_from_shared(2, params)
    rows.append(
        (
            "session_key_k2_p23",
            (2).to_bytes(16, "big").hex(),
            (23).to_bytes(16, "big").hex(),
            session.hex(),
        )
    )
    return rows


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
        if args.path.read_text() != content:
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
