"""Scenario runner: pick a handshake variant, an intruder mode, and seeds;
emit transcripts and one report line per run.

The three-party cast is fixed: honest devices A and B, intruder C. Each
master seed deterministically derives the per-device challenge streams and
the pairing randomness, so any report line can be reproduced from its
scenario name and seed alone.
"""

from collections import namedtuple
from dataclasses import field
import functools
import math
import os
import sys

from .adversary import IntruderMode, IntruderState, delay_detector, transcript_rtt, verdict
from .crypto import DhParams, clear_memos, combination_link_key, has_full_order, init_key
from .draw import master_draw
from .protocol import Variant, new_device
from .simnet import LinkConfig, run
from .values import check_type, value_class

__all__ = [
    "ScenarioConfig", "HEADLINE", "ScenarioResult", "ConfigError", "run_scenario", "main",
    # no run calls these from cli; the benchmark's tracer patches them here
    "init_key", "delay_detector",
]

ADDR_A = bytes.fromhex("aa0000000001")
ADDR_B = bytes.fromhex("bb0000000002")
ADDR_C = bytes.fromhex("cc0000000003")

# group moduli stay desk-scale: primitive-root validation and the
# brute-force experiments must stay interactive
DH_P_CAP = 1 << 48


class ConfigError(Exception):
    """Invalid scenario configuration; maps to exit status 2."""


# links, group (dh-improved only) and per-device baselines of a configuration
Prepared = tuple[LinkConfig, DhParams | None, tuple[tuple[bytes, int], ...]]


@value_class(frozen=True)
class ScenarioConfig:
    """A configuration that can run; construction refuses any other. The
    intruder must be an IntruderMode or None, the variant a Variant, and
    dh_p and dh_alpha exact ints, whatever the variant, although only
    dh-improved reads the group (TypeError naming the field otherwise).
    LinkConfig, built here, is the one check of latency_ms and timeout_ms.
    The initiator must be C exactly for the originate intruder, the one
    mode that opens a run itself, and the detector threshold a real
    number, finite and above 1. _prepared checks the group (by
    check_group) and catches a timeout too short for the intruder-free
    handshake, once per configuration. ConfigError messages name the
    command line's flags.

    prepared, derived when the configuration is built, holds the links,
    the group (dh-improved only) and the per-device baselines from
    _prepared's cache; it is stored with the fields, so a run reads it as
    one attribute. It takes no part in repr, equality or hashing."""

    variant: Variant = Variant.LEGACY
    intruder: IntruderMode | None = None
    initiator: str = "A"
    latency_ms: int = 10
    timeout_ms: int = 2000
    detect_factor: float = 1.5
    dh_p: int = 2147483647
    dh_alpha: int = 7
    prepared: Prepared = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        variant: Variant = Variant.LEGACY,
        intruder: IntruderMode | None = None,
        initiator: str = "A",
        latency_ms: int = 10,
        timeout_ms: int = 2000,
        detect_factor: float = 1.5,
        dh_p: int = 2147483647,
        dh_alpha: int = 7,
    ) -> None:
        check_type("intruder", intruder, IntruderMode, none=True)
        if initiator not in ("A", "C"):
            raise ConfigError(f"initiator must be A or C, got {initiator}")
        if (initiator == "C") != (intruder is IntruderMode.ORIGINATE_TO_A):
            raise ConfigError("initiator C and the originate intruder mode require each other")
        try:
            if not 1 < detect_factor < math.inf:
                raise ConfigError(f"detect-factor must be finite and exceed 1, got {detect_factor}")
        except TypeError:
            kind = type(detect_factor).__name__
            raise TypeError(f"detect_factor must be a real number, got {kind}") from None
        # the cache is keyed by value, so True or 10.0 must not reach the int's entry
        check_type("dh_p", dh_p, int)
        check_type("dh_alpha", dh_alpha, int)
        links = _construct("latency-ms/timeout-ms", LinkConfig, latency_ms, timeout_ms)
        check_type("variant", variant, Variant)
        # group and calibration, checked once per configuration
        group = (dh_p, dh_alpha) if variant is Variant.DH_IMPROVED else ()
        prepared = _prepared(variant, links, ADDR_A, ADDR_B, *group)
        self.__dict__.update(
            variant=variant,
            intruder=intruder,
            initiator=initiator,
            latency_ms=latency_ms,
            timeout_ms=timeout_ms,
            detect_factor=detect_factor,
            dh_p=dh_p,
            dh_alpha=dh_alpha,
            prepared=prepared,
        )

    @functools.cached_property
    def scenario_name(self) -> str:
        """The variant and intruder mode, as report_line writes them: built
        on first use and kept in the instance dictionary, outside the
        fields, so equality and hashing ignore it."""
        mode = self.intruder.value if self.intruder is not None else "none"
        return f"{self.variant.value}+{mode}"


class ScenarioResult(
    namedtuple("ScenarioResult", "seed transcript outcomes score baselines link_key")
):
    """One run of run_scenario: its seed, transcript and outcomes, the
    verdict on them, the baselines it was judged against and the link key
    the two devices shared."""

    __slots__ = ()


def validate(config: ScenarioConfig) -> Prepared:
    """The links, group and baselines of a configuration, which construction
    checked. No run calls it: perfbench/ does, and the contract table's
    validate rows."""
    return config.prepared


def _construct(flags: str, value_type, *args):
    try:
        return value_type(*args)
    except ValueError as err:
        raise ConfigError(f"{flags}: {err}") from None


def check_group(dh_p: int, dh_alpha: int) -> DhParams:
    """The group of modulus dh_p and generator dh_alpha, two ints (each
    ScenarioConfig checks them, and scripts/dlog_cost.py takes them typed
    from argparse); raises ConfigError unless dh_p is a prime below
    DH_P_CAP and dh_alpha generates its whole multiplicative group."""
    if dh_p >= DH_P_CAP:
        raise ConfigError(f"dh-p must be below 2^48, got {dh_p}")
    params = _construct("dh-p/dh-alpha", DhParams, dh_p, dh_alpha)
    if not has_full_order(params):
        raise ConfigError(f"dh-alpha {dh_alpha} is not a primitive root of {dh_p}")
    return params


# bounded, so that a sweep over link timings does not keep each group's
# fixed-base table alive: the benchmark builds at most 13 distinct
# configurations in a process, the CLI and scripts/attack_matrix.py fewer
@functools.lru_cache(maxsize=32)
def _prepared(
    variant: Variant,
    links: LinkConfig,
    addr_a: bytes,
    addr_b: bytes,
    dh_p: int | None = None,
    dh_alpha: int | None = None,
) -> Prepared:
    """Links, group and per-device baselines of one configuration, built
    and checked once per variant, link timing, honest cast (the addresses
    of A and B, which the baselines hold) and group. Only dh-improved
    takes a group; ScenarioConfig passes dh_p and dh_alpha for it alone.

    The links come checked: ScenarioConfig builds the LinkConfig, which
    hashes by value and holds exact ints. The group is checked (through
    check_group) and turned into its value type here. The baselines are
    the round trips of an intruder-free companion run, read from its
    transcript. In an honest run no branch depends on payload octets
    (responses always verify, and every public value of a keypair is a
    valid peer value), so the delivery schedule, and with it each round
    trip, depends on the variant and the link timing alone; one run at a
    fixed seed calibrates every seed. ScenarioConfig checks the type of
    every argument first, so the cache is keyed by value alone. Raises
    ConfigError on an invalid group or when the timeout cuts that run
    short of a round trip for either device.
    """
    params = check_group(dh_p, dh_alpha) if variant is Variant.DH_IMPROVED else None
    dev_a = new_device(addr_a, variant, bytes(16), 0, params)
    dev_b = new_device(addr_b, variant, bytes(16), 1, params)
    calibration, _ = run(dev_a, dev_b, None, links)
    baselines = tuple((dev, transcript_rtt(calibration, dev)) for dev in (addr_a, addr_b))
    if any(baseline is None for _, baseline in baselines):
        raise ConfigError(
            f"latency-ms/timeout-ms: timeout {links.timeout_ms} ms ends the intruder-free "
            f"{variant.value} handshake before both round trips complete"
        )
    return links, params, baselines


# the ten headline scenarios of the attack matrix, in the README's order
HEADLINE: tuple[ScenarioConfig, ...] = (
    *(ScenarioConfig(variant) for variant in Variant),
    ScenarioConfig(Variant.LEGACY, IntruderMode.RELAY_ACTIVE),
    ScenarioConfig(Variant.LEGACY, IntruderMode.RELAY_PASSIVE),
    ScenarioConfig(Variant.LEGACY, IntruderMode.ORIGINATE_TO_A, initiator="C"),
    ScenarioConfig(Variant.IMPROVED, IntruderMode.RELAY_ACTIVE),
    ScenarioConfig(Variant.IMPROVED, IntruderMode.ORIGINATE_TO_A, initiator="C"),
    ScenarioConfig(Variant.DH_IMPROVED, IntruderMode.RELAY_ACTIVE),
    ScenarioConfig(Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE),
)


def _check_seed(seed: int) -> None:
    # random.Random seeds from a bool or a float as from the int it equals,
    # so True or 1.0 would replay seed 1 under another label
    if type(seed) is not int:
        check_type("seed", seed, int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def run_scenario(config: ScenarioConfig, seed: int) -> ScenarioResult:
    """One full run at one seed: the run itself, then its verdict, which
    judges detection against the configuration's cached baselines and
    threshold. It first clears crypto's memos, so the run starts from no
    other run's entries, then takes links, group and baselines from the
    configuration, which construction checked, and the addresses of A and
    B from its baselines. The link key combines the two contributions of
    master_draw: pairing takes no user input, so a PIN's bootstrap-key
    mask (init_key) would cancel out, and no run computes one. It raises
    ConfigError for a negative seed, which random.Random would take as its
    absolute value, and TypeError for a seed that is not an int."""
    _check_seed(seed)
    clear_memos()
    links, params, calibrated = config.prepared
    (addr_a, _), (addr_b, _) = calibrated
    baselines = dict(calibrated)
    seed_a, seed_b, seed_c, rand_a, rand_b = master_draw(seed)
    link_key = combination_link_key(rand_a, addr_a, rand_b, addr_b)

    variant = config.variant
    dev_a = new_device(addr_a, variant, link_key, seed_a, params)
    dev_b = new_device(addr_b, variant, link_key, seed_b, params)
    intruder = None
    if config.intruder is not None:
        intruder = IntruderState(ADDR_C, config.intruder, variant, addr_a, addr_b, seed_c, params)
    transcript, outcomes = run(dev_a, dev_b, intruder, links)
    score = verdict(outcomes, transcript, link_key, baselines, config.detect_factor)
    # as simnet.run builds its records: ScenarioResult's own __new__, less its frame
    return tuple.__new__(ScenarioResult, (seed, transcript, outcomes, score, baselines, link_key))


def report_line(config: ScenarioConfig, result: ScenarioResult) -> str:
    """The run's report: scenario name, seed, the four verdict fields and
    the number of delivered messages. The name is built once per
    configuration (scenario_name)."""
    score = result.score
    return (
        f"scenario={config.scenario_name} seed={result.seed} "
        f"attack_success={'true' if score.attack_success else 'false'} "
        f"integrity={score.integrity.value} "
        f"confidentiality={score.confidentiality.value} "
        f"detection={score.detection.value} messages={len(result.transcript.events)}"
    )


def _build_parser():
    # imported here, so that importing the library does not load argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="btauthsim",
        description="Simulate pairing authentication runs and relay attacks.",
    )
    defaults = ScenarioConfig()
    parser.add_argument(
        "--variant", choices=[v.value for v in Variant], default=defaults.variant.value
    )
    parser.add_argument(
        "--intruder",
        choices=["none"] + [m.value for m in IntruderMode],
        default="none",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds-count", type=int, default=1)
    parser.add_argument("--latency-ms", type=int, default=defaults.latency_ms)
    parser.add_argument("--timeout-ms", type=int, default=defaults.timeout_ms)
    parser.add_argument("--detect-factor", type=float, default=defaults.detect_factor)
    parser.add_argument("--dh-p", type=int, default=defaults.dh_p)
    parser.add_argument("--dh-alpha", type=int, default=defaults.dh_alpha)
    parser.add_argument("--output", choices=["text", "jsonl"], default="text")
    parser.add_argument(
        "--transcript", action="store_true", help="print each run's transcript before its report"
    )
    parser.add_argument("--out", default=None, help="write to this file instead of stdout")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    intruder = None if args.intruder == "none" else IntruderMode(args.intruder)
    return ScenarioConfig(
        variant=Variant(args.variant),
        intruder=intruder,
        # the originate intruder opens the run itself, so C initiates it
        initiator="C" if intruder is IntruderMode.ORIGINATE_TO_A else "A",
        latency_ms=args.latency_ms,
        timeout_ms=args.timeout_ms,
        detect_factor=args.detect_factor,
        dh_p=args.dh_p,
        dh_alpha=args.dh_alpha,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_seed(args.seed)
        if args.seeds_count < 1:
            raise ConfigError(f"seeds-count must be at least 1, got {args.seeds_count}")
        config = _config_from_args(args)
        sink = open(args.out, "w") if args.out else sys.stdout
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        for offset in range(args.seeds_count):
            result = run_scenario(config, args.seed + offset)
            if args.transcript:
                text = (
                    result.transcript.to_jsonl()
                    if args.output == "jsonl"
                    else result.transcript.to_text()
                )
                sink.write(text)
            sink.write(report_line(config, result) + "\n")
        sink.flush()
    except OSError as err:
        # the reader closed the pipe, or the output failed (a full disk,
        # say): as the signal module's SIGPIPE note does, send what is still
        # buffered to devnull, so that neither close nor the interpreter's
        # last flush of stdout raises again, and exit 1; a closed pipe is
        # the reader's choice, so it alone prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sink.fileno())
        os.close(devnull)
        if not isinstance(err, BrokenPipeError):
            print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
