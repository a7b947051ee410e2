"""The harness the test modules share: the three-party cast, the default
group and links, the party builders, the one run builder and the one
attacked-run builder, the intruder's view of a run, a call recorder and the
loader of scripts/ and perfbench/.

tests/test_imports.py refuses a test module that binds at its top level a
name defined here, so each of these has one definition, and a test module
other than this one that reaches simnet.run: every run a test drives goes
through run_of.
"""

import contextlib
import copy
import importlib.util
from pathlib import Path

from btauthsim.adversary import IntruderState, verdict
from btauthsim.crypto import DhParams, xor_bytes
from btauthsim.protocol import Variant, new_device
from btauthsim.simnet import LinkConfig, Transcript, TranscriptEvent, run

# honest A and B, and the intruder C
ADDR_A = bytes.fromhex("aa0000000001")
ADDR_B = bytes.fromhex("bb0000000002")
ADDR_C = bytes.fromhex("cc0000000003")
KEY = bytes(range(16))
# the CLI's default group: 7 generates the group mod 2^31 - 1
PARAMS = DhParams(2**31 - 1, 7)
# the largest safe prime below 2^47, whose generator is 2
WIDE_P = 140737488353843
LINKS = LinkConfig()
# the intruder-free legacy round trip at LINKS, for either device, and the
# default threshold: a relay that doubles it is flagged
BASELINES = {ADDR_A: 20, ADDR_B: 20}
FACTOR = 1.5


def group_of(variant, group=PARAMS):
    """The group a party of the variant is built with: group for
    dh-improved, None otherwise."""
    return group if variant is Variant.DH_IMPROVED else None


def pair(variant, seed_a=1, seed_b=2, key_a=KEY, key_b=KEY, group=PARAMS):
    """Honest devices A and B of the variant, in group if dh-improved."""
    params = group_of(variant, group)
    return (
        new_device(ADDR_A, variant, key_a, seed_a, dh_params=params),
        new_device(ADDR_B, variant, key_b, seed_b, dh_params=params),
    )


def intruder(mode, variant, seed_c=3):
    """Intruder C of the mode between A and B; None for no mode."""
    if mode is None:
        return None
    return IntruderState(
        ADDR_C, mode, variant, ADDR_A, ADDR_B, rng_seed=seed_c, dh_params=group_of(variant)
    )


def run_of(variant, c=None, *, seeds=(1, 2), key_a=KEY, key_b=KEY, group=PARAMS, links=LINKS):
    """One run through simnet.run of the pair that pair builds from seeds,
    the keys and group, with intruder c (any object simnet.run takes, or
    None, and which opens the run when its opening is not empty) at links:
    (A, B, the transcript, the outcomes)."""
    dev_a, dev_b = pair(variant, *seeds, key_a, key_b, group)
    transcript, outcomes = run(dev_a, dev_b, c, links)
    return dev_a, dev_b, transcript, outcomes


def attacked(variant, mode, seeds=(1, 2, 3), key=KEY):
    """One run of A and B, both holding key, with intruder C of the mode,
    seeded by seeds in that order, and its verdict at BASELINES and FACTOR:
    (A, B, C, the transcript, the outcomes, the verdict)."""
    dev_c = intruder(mode, variant, seeds[2])
    dev_a, dev_b, transcript, outcomes = run_of(
        variant, dev_c, seeds=seeds[:2], key_a=key, key_b=key
    )
    score = verdict(outcomes, transcript, key, BASELINES, FACTOR)
    return dev_a, dev_b, dev_c, transcript, outcomes, score


def session_of(device, key=KEY):
    """A dh-improved device's session key: its working key XOR the pairing key."""
    return xor_bytes(device.effective_key, key)


def captured(transcript, outcomes):
    """The payloads of every hop that a party outside outcomes sent or
    received: what the intruder of the run saw."""
    return {
        e.payload for e in transcript.events if e.from_id not in outcomes or e.to_id not in outcomes
    }


def transcript_of(hops):
    """A transcript of (sender, receiver, kind, payload) hops at LINKS, the
    hop of sequence number n delivered at time n."""
    return Transcript(
        events=tuple(TranscriptEvent(seq, seq, *hop) for seq, hop in enumerate(hops)),
        links=LINKS,
        end_time=len(hops),
    )


@contextlib.contextmanager
def recorded(module, name, deep=False):
    """The positional arguments of each call of module.name made inside
    the block, a tuple per call, deep copies taken before the call if deep;
    each call goes on to the function. It patches the module itself, not
    through pytest's monkeypatch fixture, so it works inside Hypothesis
    tests too."""
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(copy.deepcopy(args) if deep else args)
        return real(*args)

    setattr(module, name, recording)
    try:
        yield calls
    finally:
        setattr(module, name, real)


def load_script(name, directory="scripts", module=None):
    """<directory>/<name>.py of the repository, executed afresh as a module
    named module, or name if module is None."""
    path = Path(__file__).resolve().parent.parent / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(module or name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
