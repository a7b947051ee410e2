"""Scenario configuration, report lines, output modes, exit codes."""

import collections
import dataclasses
import enum
import errno
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import PARAMS, WIDE_P, recorded, run_of

from btauthsim import adversary, cli, crypto, draw, protocol, simnet, values
from btauthsim.cli import ConfigError, ScenarioConfig, main, run_scenario
from btauthsim.adversary import (
    AttackVerdict,
    Confidentiality,
    Detection,
    Integrity,
    IntruderMode,
    IntruderState,
    transcript_rtt,
)
from btauthsim.crypto import DhParams, combination_link_key, init_key, mixhash128, xor_bytes
from btauthsim.protocol import Variant, new_device
from btauthsim.simnet import LinkConfig

# hops of the intruder-free handshake, first send to last delivery
HANDSHAKE_HOPS = {Variant.LEGACY: 4, Variant.IMPROVED: 5, Variant.DH_IMPROVED: 7}


def fresh_baselines(config: ScenarioConfig, seed: int) -> dict:
    """Per-seed calibration: an intruder-free companion run of devices built
    from the seed's own draws, read with transcript_rtt."""
    master = random.Random(seed)
    seeds = master.getrandbits(64), master.getrandbits(64)
    master.getrandbits(64)  # the intruder's stream
    master.randbytes(16)  # IN_RAND, which pairing without a PIN discards
    link_key = combination_link_key(master.randbytes(16), cli.ADDR_A, master.randbytes(16), cli.ADDR_B)
    _, _, transcript, outcomes = run_of(
        config.variant,
        seeds=seeds,
        key_a=link_key,
        key_b=link_key,
        group=DhParams(config.dh_p, config.dh_alpha),
        links=LinkConfig(config.latency_ms, config.timeout_ms),
    )
    return {dev: transcript_rtt(transcript, dev) for dev in outcomes}


# the command line in a child process, and the device that refuses every
# write for want of space, with the error it gives
CLI = [sys.executable, "-m", "btauthsim.cli"]
FULL = "/dev/full"
NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def cli_env() -> dict:
    """The environment of a child that imports the package under test."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_main(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestReportLines:
    def test_default_run(self, capsys):
        status, out, err = run_main(capsys)
        assert status == 0
        assert err == ""
        assert out == (
            "scenario=legacy+none seed=0 attack_success=false integrity=Maintained "
            "confidentiality=Maintained detection=None messages=6\n"
        )

    def test_legacy_relay_matrix(self, capsys):
        status, out, _ = run_main(
            capsys, "--variant", "legacy", "--intruder", "relay-active", "--seeds-count", "5"
        )
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for offset, line in enumerate(lines):
            assert f"seed={offset} " in line
            assert "attack_success=true" in line
            assert "confidentiality=Breached" in line
            assert "detection=DelayFlagged" in line
            assert "messages=12" in line

    def test_case1_originate(self, capsys):
        # the originate intruder opens the run itself: the command line
        # makes C the initiator, with no flag for it
        status, out, _ = run_main(capsys, "--variant", "improved", "--intruder", "originate")
        assert status == 0
        assert "attack_success=false" in out
        assert "detection=None" in out
        assert "messages=6" in out

    def test_case2_split(self, capsys):
        _, out, _ = run_main(capsys, "--variant", "improved", "--intruder", "relay-active")
        assert "attack_success=true" in out
        assert "integrity=Maintained" in out
        assert "confidentiality=Breached" in out

    def test_dh_relay_active_blocked(self, capsys):
        _, out, _ = run_main(capsys, "--variant", "dh-improved", "--intruder", "relay-active")
        assert "attack_success=false" in out
        assert "detection=DelayFlagged" in out

    def test_dh_relay_passive_keeps_confidentiality(self, capsys):
        _, out, _ = run_main(capsys, "--variant", "dh-improved", "--intruder", "relay-passive")
        assert "confidentiality=Maintained" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_main(capsys, "--variant", "improved", "--intruder", "relay-active")
        _, second, _ = run_main(capsys, "--variant", "improved", "--intruder", "relay-active")
        assert first == second

    def test_distinct_seeds_distinct_transcripts(self):
        config = ScenarioConfig(variant=Variant.LEGACY)
        one = run_scenario(config, 0).transcript.to_text()
        two = run_scenario(config, 1).transcript.to_text()
        assert one != two

    @pytest.mark.parametrize(
        "score",
        [
            AttackVerdict(*fields)
            for fields in itertools.product(
                [False, True], list(Integrity), list(Confidentiality), list(Detection)
            )
        ],
        ids=lambda score: "-".join(str(getattr(f, "value", f)) for f in score),
    )
    def test_every_verdict_reports_its_enum_values(self, score):
        # each of the 16 verdicts
        config = cli.HEADLINE[3]
        result = run_scenario(config, 7)._replace(score=score)
        success, integrity, confidentiality, detection = score
        assert cli.report_line(config, result) == (
            f"scenario={config.variant.value}+{config.intruder.value} seed=7 "
            f"attack_success={str(success).lower()} integrity={integrity.value} "
            f"confidentiality={confidentiality.value} detection={detection.value} "
            f"messages={len(result.transcript.events)}"
        )

    def test_a_plain_tuple_score_is_refused_as_before(self):
        # equal to a verdict, but with no field names, so report_line
        # fails on its first field read
        config = cli.HEADLINE[0]
        result = run_scenario(config, 0)
        cli.report_line(config, result)
        with pytest.raises(AttributeError, match="attack_success"):
            cli.report_line(config, result._replace(score=tuple(result.score)))

    def test_scenario_names_of_the_headline(self):
        names = [config.scenario_name for config in cli.HEADLINE]
        assert names == [
            "legacy+none", "improved+none", "dh-improved+none",
            "legacy+relay-active", "legacy+relay-passive", "legacy+originate",
            "improved+relay-active", "improved+originate",
            "dh-improved+relay-active", "dh-improved+relay-passive",
        ]
        # kept in the instance dictionary, outside the fields
        for config in cli.HEADLINE:
            fresh = ScenarioConfig(config.variant, config.intruder, config.initiator)
            assert "scenario_name" in vars(config) and "scenario_name" not in vars(fresh)
            assert config == fresh and hash(config) == hash(fresh)
            assert repr(config) == repr(fresh)
            assert fresh.scenario_name == config.scenario_name


class TestTranscriptOutput:
    def test_text_transcript_precedes_report(self, capsys):
        status, out, _ = run_main(capsys, "--transcript")
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("seq=0 t=10 ")
        assert lines[-1].startswith("scenario=")

    def test_jsonl_transcript(self, capsys):
        _, out, _ = run_main(capsys, "--transcript", "--output", "jsonl")
        lines = out.splitlines()
        for line in lines[:-1]:
            record = json.loads(line)
            assert set(record) == {"seq", "t", "from", "to", "kind", "payload"}
        assert lines[-1].startswith("scenario=")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        status, out, _ = run_main(capsys, "--seeds-count", "2", "--out", str(path))
        assert status == 0
        assert out == ""
        content = path.read_text().splitlines()
        assert len(content) == 2
        assert all(line.startswith("scenario=legacy+none") for line in content)

    def test_a_closed_pipe_ends_the_run_quietly(self):
        # as `btauthsim --seeds-count 20000 | head -1`: the reader takes one
        # line and closes the pipe long before the last run
        with subprocess.Popen(
            [*CLI, "--seeds-count", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        ) as child:
            assert child.stdout.readline().startswith("scenario=legacy+none seed=0 ")
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert err == ""
        assert child.returncode == 1

    @pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL}")
    def test_a_full_out_file_ends_the_run_with_one_error_line(self):
        # as `btauthsim --out /dev/full`: the flush fails, and so would the
        # close after it
        child = subprocess.run(
            [*CLI, "--out", FULL], capture_output=True, text=True, env=cli_env(), timeout=60
        )
        assert child.stderr == f"error: {NO_SPACE}\n"
        assert child.returncode == 1

    @pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL}")
    def test_a_full_stdout_ends_the_run_with_one_error_line(self):
        # as `btauthsim > /dev/full`: the write fails, and so would the
        # interpreter's last flush of stdout
        with open(FULL, "w") as full:
            child = subprocess.run(
                CLI, stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60
            )
        assert child.stderr == f"error: {NO_SPACE}\n"
        assert child.returncode == 1


class TestConfigErrors:
    def test_initiator_c_needs_originate(self, capsys):
        # the command line takes no initiator: it makes C the initiator
        # exactly for the originate intruder, so --initiator is an unknown
        # flag (ScenarioConfig still refuses a mismatch, see test_contracts)
        for argv in (
            ["--initiator", "C"],
            ["--intruder", "relay-active", "--initiator", "C"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert "unrecognized arguments: --initiator C" in err
        for argv in (
            ["--variant", "legacy", "--intruder", "originate"],
            ["--variant", "dh-improved", "--intruder", "originate"],
        ):
            status, out, err = run_main(capsys, *argv)
            assert status == 0, argv
            assert err == ""
            assert out.startswith(f"scenario={argv[1]}+originate seed=0 attack_success=false ")

    def test_nonprime_group_modulus(self, capsys):
        status, _, err = run_main(capsys, "--variant", "dh-improved", "--dh-p", "10")
        assert status == 2
        assert "prime" in err

    def test_non_generator_alpha(self, capsys):
        status, _, err = run_main(
            capsys, "--variant", "dh-improved", "--dh-p", "23", "--dh-alpha", "4"
        )
        assert status == 2
        assert "primitive root" in err

    def test_group_modulus_cap(self, capsys):
        status, _, err = run_main(
            capsys, "--variant", "dh-improved", "--dh-p", "2305843009213693951"
        )
        assert status == 2
        assert "2^48" in err

    def test_group_flags_ignored_outside_dh_variant(self, capsys):
        status, _, _ = run_main(capsys, "--variant", "legacy", "--dh-p", "10")
        assert status == 0

    def test_pin_is_not_an_option(self, capsys):
        # pairing needs no user input: the PIN cannot change a run
        with pytest.raises(SystemExit) as exc:
            main(["--pin", "1234"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pin 1234" in capsys.readouterr().err

    def test_seeds_count_positive(self, capsys):
        status, _, err = run_main(capsys, "--seeds-count", "0")
        assert status == 2
        assert "seeds-count" in err

    @pytest.mark.parametrize(
        "seed,more",
        [("-3", ("--intruder", "relay-active", "--transcript")), ("-2", ("--seeds-count", "5"))],
    )
    def test_negative_seed(self, capsys, seed, more):
        # random.Random takes |seed|, so -3 would replay seed 3 under another label
        status, out, err = run_main(capsys, "--seed", seed, *more)
        assert status == 2
        assert out == ""
        assert err == f"error: seed must be non-negative, got {seed}\n"

    def test_latency_and_timeout(self, capsys):
        status, _, _ = run_main(capsys, "--latency-ms", "0")
        assert status == 2
        status, _, _ = run_main(capsys, "--latency-ms", "50", "--timeout-ms", "50")
        assert status == 2

    def test_timeout_shorter_than_handshake(self, capsys):
        # the timeout exceeds one hop but ends the handshake before B's
        # challenge is answered
        status, out, err = run_main(capsys, "--latency-ms", "10", "--timeout-ms", "25")
        assert status == 2
        assert out == ""
        assert err.startswith("error: latency-ms/timeout-ms: ")

    def test_detect_factor_bound(self, capsys):
        for factor in ("1.0", "nan", "inf"):
            status, _, err = run_main(
                capsys, "--intruder", "relay-active", "--detect-factor", factor
            )
            assert status == 2, factor
            assert "detect-factor" in err

    def test_out_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.txt"
        status, out, err = run_main(capsys, "--out", str(path))
        assert status == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "missing" in err

    def test_unknown_variant_rejected_by_parser(self, capsys):
        for argv in (["--variant", "quantum"], ["--output", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_scenario_config_checks_across_fields(self):
        # the check across fields; tests/test_contracts.py has each field's
        with pytest.raises(ConfigError):
            ScenarioConfig(intruder=IntruderMode.ORIGINATE_TO_A)

    @pytest.mark.parametrize("value", [True, 10.0, "10", None], ids=repr)
    @pytest.mark.parametrize("field", ["latency_ms", "timeout_ms", "dh_p", "dh_alpha"])
    def test_validate_rejects_a_field_that_is_not_an_int(self, field, value):
        # the per-configuration cache is keyed by value alone, so it would
        # answer True and 10.0 from the entry of the int they equal: every
        # field is refused at construction, before the cache is asked, and
        # no entry is kept
        cli._prepared.cache_clear()
        message = f"^{field} must be an int, got {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            ScenarioConfig(variant=Variant.DH_IMPROVED, **{field: value})
        info = cli._prepared.cache_info()
        assert info.hits == info.currsize == 0
        assert info.misses == 0

    @pytest.mark.parametrize("field,value", [("latency_ms", 10), ("timeout_ms", 2000)])
    @pytest.mark.parametrize("int_first", [True, False], ids=["int-first", "float-first"])
    def test_the_cache_never_takes_a_float_timing_for_its_int(self, field, value, int_first):
        cli._prepared.cache_clear()
        if int_first:
            ScenarioConfig(**{field: value})
        with pytest.raises(TypeError, match=f"^{field} must be an int, got float$"):
            ScenarioConfig(**{field: float(value)})
        links, _, baselines = ScenarioConfig(**{field: value}).prepared
        assert type(getattr(links, field)) is int
        assert all(type(rtt) is int for _, rtt in baselines)

    def test_a_run_depends_on_no_earlier_configuration(self):
        # a float latency equal to the default once shared its cache entry,
        # so a later default run printed "t":10.0 and baselines of 20.0
        cli._prepared.cache_clear()
        fresh = run_scenario(ScenarioConfig(), 0)
        cli._prepared.cache_clear()
        with pytest.raises(TypeError, match="^latency_ms must be an int, got float$"):
            run_scenario(ScenarioConfig(latency_ms=10.0), 0)
        after = run_scenario(ScenarioConfig(), 0)
        assert after.transcript.to_jsonl() == fresh.transcript.to_jsonl()
        assert '"t":10,' in after.transcript.to_jsonl()
        assert after.baselines == fresh.baselines
        assert all(type(rtt) is int for rtt in after.baselines.values())

    def test_a_configuration_carries_its_cast(self, monkeypatch):
        # relabelling A and B: a configuration built under the new cast is
        # calibrated, and runs, with it, with no clear of the cache; one
        # built before keeps the cast it was calibrated with
        def rows(configs):
            return [
                (score.attack_success, score.integrity, score.confidentiality, score.detection,
                 len(result.transcript.events))
                for config in configs
                for seed in range(5)
                for result in [run_scenario(config, seed)]
                for score in [result.score]
            ]

        expected = rows(cli.HEADLINE)
        cast = bytes.fromhex("a1b2c3d4e5f6"), bytes.fromhex("0102030405ff")
        monkeypatch.setattr(cli, "ADDR_A", cast[0])
        monkeypatch.setattr(cli, "ADDR_B", cast[1])
        fresh = [dataclasses.replace(config) for config in cli.HEADLINE]
        assert fresh == list(cli.HEADLINE)
        assert all(tuple(dev for dev, _ in config.prepared[2]) == cast for config in fresh)
        assert rows(fresh) == expected
        assert set(run_scenario(fresh[0], 0).outcomes) == set(cast)
        assert rows(cli.HEADLINE) == expected

    def test_group_checked_once_per_configuration(self):
        cli._prepared.cache_clear()
        with recorded(cli, "has_full_order") as calls:
            for mode in (None, IntruderMode.RELAY_ACTIVE, IntruderMode.RELAY_PASSIVE):
                run_scenario(ScenarioConfig(variant=Variant.DH_IMPROVED, intruder=mode), 0)
        assert calls == [(PARAMS,)]

    def test_a_sweep_of_link_timings_keeps_no_old_group(self):
        # the cache is bounded: configurations that differ only in link
        # timing do not keep every earlier group, and its fixed-base
        # table, alive
        cli._prepared.cache_clear()
        config = ScenarioConfig(variant=Variant.DH_IMPROVED)
        group = weakref.ref(config.prepared[1])
        del config
        for latency_ms in range(11, 211):
            ScenarioConfig(variant=Variant.DH_IMPROVED, latency_ms=latency_ms)
        gc.collect()
        assert group() is None

    def test_wide_group_primality_tests(self):
        # one Miller-Rabin pass on p, by DhParams, and one inside the
        # generator check's factorisation of p - 1 = 2q, on q; none on a
        # cached repeat
        cli._prepared.cache_clear()
        with recorded(crypto, "is_prime") as calls:
            config = ScenarioConfig(variant=Variant.DH_IMPROVED, dh_p=WIDE_P, dh_alpha=2)
            assert calls == [(WIDE_P,), ((WIDE_P - 1) // 2,)]
            config.prepared
        assert len(calls) == 2


class TestScenarioApi:
    def test_command_line_defaults_are_the_config_defaults(self):
        assert cli._config_from_args(cli._build_parser().parse_args([])) == ScenarioConfig()

    def test_small_dh_group_runs(self, capsys):
        status, out, _ = run_main(
            capsys, "--variant", "dh-improved", "--dh-p", "23", "--dh-alpha", "5"
        )
        assert status == 0
        assert "messages=8" in out

    @given(
        st.integers(min_value=0, max_value=2**64),
        st.binary(min_size=1, max_size=16),
    )
    @example(0, b"0000")
    @settings(max_examples=50, deadline=None)
    def test_custom_pin_changes_nothing_downstream(self, seed, pin):
        # the masked pairing: both contributions cross the wire masked by
        # the bootstrap key of the PIN and the pairing random number, and
        # are unmasked on arrival; the mask cancels, so the run's link key
        # is the same, for any PIN, from the same draws: the master draw's
        # IN_RAND and two contributions, after the three party seeds
        def masked_link_key(master):
            bootstrap = init_key(pin, cli.ADDR_A, master.randbytes(16))
            masked_a = xor_bytes(master.randbytes(16), bootstrap)
            masked_b = xor_bytes(master.randbytes(16), bootstrap)
            rand_a = xor_bytes(masked_a, bootstrap)
            rand_b = xor_bytes(masked_b, bootstrap)
            return combination_link_key(rand_a, cli.ADDR_A, rand_b, cli.ADDR_B)

        oracle = random.Random(seed)
        seeds = tuple(oracle.getrandbits(64) for _ in range(3))
        assert run_scenario(cli.HEADLINE[0], seed).link_key == masked_link_key(oracle)
        # the master draw is those draws and no more
        master = random.Random(seed)
        master.randbytes(72)
        assert draw.master_draw(seed)[:3] == seeds
        assert master.getrandbits(64) == oracle.getrandbits(64)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_baselines_by_variant(self, seed, latency_ms):
        # the companion run's round trips: one hop each way, plus the
        # counter-challenge leg for A under the nested variants
        hops_a = {Variant.LEGACY: 2, Variant.IMPROVED: 4, Variant.DH_IMPROVED: 4}
        for variant in Variant:
            result = run_scenario(ScenarioConfig(variant=variant, latency_ms=latency_ms), seed)
            a, b = sorted(result.baselines, key=str)
            assert result.baselines[a] == hops_a[variant] * latency_ms
            assert result.baselines[b] == 2 * latency_ms

    @given(
        st.sampled_from(list(Variant)),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=200),
        st.sampled_from([(23, 5), (2**31 - 1, 7)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_baselines_equal_fresh_calibration(
        self, variant, seed, latency_ms, slack, group
    ):
        config = ScenarioConfig(
            variant=variant,
            latency_ms=latency_ms,
            timeout_ms=HANDSHAKE_HOPS[variant] * latency_ms + slack,
            dh_p=group[0],
            dh_alpha=group[1],
        )
        result = run_scenario(config, seed)
        assert result.baselines == fresh_baselines(config, seed)
        # each result owns its baselines; emptying one leaves the cache intact
        result.baselines.clear()
        assert run_scenario(config, seed + 1).baselines == fresh_baselines(config, seed + 1)

    @pytest.mark.parametrize(
        "variant,mode",
        [
            (Variant.LEGACY, IntruderMode.RELAY_PASSIVE),
            (Variant.IMPROVED, IntruderMode.RELAY_ACTIVE),
            (Variant.DH_IMPROVED, IntruderMode.RELAY_PASSIVE),
        ],
        ids=["legacy-passive", "improved-active", "dh-passive"],
    )
    def test_e1_memo_carries_nothing_between_runs(self, variant, mode):
        # a run's digest count is a function of its scenario and seed, not
        # of the runs before it; run_scenario clears the memos, and with
        # them their counts of misses, before each run
        config = ScenarioConfig(variant=variant, intruder=mode)
        counts = []
        for seed in (5, 6, 5):
            run_scenario(config, seed)
            memos = crypto.e1, crypto._session_key_of
            counts.append(tuple(memo.cache_info().misses for memo in memos))
        assert counts[0] == counts[2]
        assert counts[0][0] > 0

    @pytest.mark.parametrize(
        "mode,derivations",
        [(None, 1), (IntruderMode.RELAY_PASSIVE, 1), (IntruderMode.RELAY_ACTIVE, 2)],
        ids=["honest", "relay-passive", "relay-active"],
    )
    def test_one_session_key_derivation_per_shared_value(self, mode, derivations):
        # both devices of an honest or passively relayed run agree on the
        # shared value and derive its key once; a relay that substitutes
        # the publics leaves each device its own. A seed rerun after other
        # runs derives as often as the first time: the memo starts empty,
        # and every derivation is a miss of the memo
        config = ScenarioConfig(variant=Variant.DH_IMPROVED, intruder=mode)
        counts = []
        for seed in (0, 1, 2, 0):
            run_scenario(config, seed)
            info = crypto._session_key_of.cache_info()
            counts.append((info.misses, info.hits))
        assert counts == [(derivations, 2 - derivations)] * 4

    @pytest.mark.parametrize("group", [(2**31 - 1, 7), (WIDE_P, 2)], ids=["p31", "wide"])
    @pytest.mark.parametrize(
        "mode", [None, IntruderMode.RELAY_PASSIVE, IntruderMode.RELAY_ACTIVE],
        ids=["honest", "relay-passive", "relay-active"],
    )
    def test_no_modular_exponentiation_for_an_agreed_key(self, group, mode):
        # every public value that reaches a device was drawn in the run, A's
        # and B's by new_device and the active relay's by IntruderState, so
        # each key comes from the fixed-base table. Each run starts with the
        # memos empty, whatever ran before
        dh_p, dh_alpha = group
        modes = [None, IntruderMode.RELAY_PASSIVE, IntruderMode.RELAY_ACTIVE]
        configs = {
            other: ScenarioConfig(
                variant=Variant.DH_IMPROVED, intruder=other, dh_p=dh_p, dh_alpha=dh_alpha
            )
            for other in modes
        }
        counts = []
        for other in modes:
            run_scenario(configs[other], 0)
            with recorded(crypto, "modexp") as calls:
                run_scenario(configs[mode], 0)
            counts.append(len(calls))
        assert counts == [0] * len(modes)

    def test_originate_intruder_flag_combination(self):
        config = ScenarioConfig(
            variant=Variant.IMPROVED, intruder=IntruderMode.ORIGINATE_TO_A, initiator="C"
        )
        result = run_scenario(config, 11)
        assert result.score.attack_success is False


# the ten headline scenarios, and dh-improved+originate, whose script no
# headline scenario runs
SCENARIOS = (
    *cli.HEADLINE, ScenarioConfig(Variant.DH_IMPROVED, IntruderMode.ORIGINATE_TO_A, initiator="C")
)
# a latency L in ms and a timeout of 8L to 60L
TIMINGS = st.integers(1, 60).flatmap(
    lambda latency: st.tuples(st.just(latency), st.integers(8 * latency, 60 * latency))
)
# three distinct 6-octet addresses, in any order: an address and two
# offsets from it whose sum stays below 2^48
CASTS = st.tuples(
    st.integers(0, 2**48 - 1), st.integers(1, 2**47 - 1), st.integers(1, 2**47 - 1)
).flatmap(lambda t: st.permutations(
    [(t[0] + offset) % 2**48 for offset in (0, t[1], t[1] + t[2])]
)).map(lambda numbers: [number.to_bytes(6, "big") for number in numbers])


def hops(transcript) -> list[tuple]:
    """Each delivered hop of a transcript without its time."""
    return [(e.seq, e.from_id, e.to_id, e.kind, e.payload) for e in transcript.events]


class TestVerdictInvariances:
    """What a verdict must not change under, over SCENARIOS: the report
    row of a run is fixed by its scenario's structure (how many hops a
    relay adds, which challenge meets which response), not by the time
    unit, the names of the cast or, past the round-trip ratio a run shows,
    the exact detector threshold. Each relation holds without an oracle
    for its outputs."""

    @given(st.sampled_from(SCENARIOS), st.integers(0, 2**32), TIMINGS, st.integers(2, 9))
    @settings(deadline=None)
    def test_scaling_time_scales_only_the_times(self, config, seed, timing, k):
        latency_ms, timeout_ms = timing
        base = dataclasses.replace(config, latency_ms=latency_ms, timeout_ms=timeout_ms)
        scaled = dataclasses.replace(config, latency_ms=k * latency_ms, timeout_ms=k * timeout_ms)
        one, other = run_scenario(base, seed), run_scenario(scaled, seed)
        assert cli.report_line(scaled, other) == cli.report_line(base, one)
        assert hops(other.transcript) == hops(one.transcript)
        assert [e.time for e in other.transcript.events] == [
            k * e.time for e in one.transcript.events
        ]
        assert other.transcript.end_time == k * one.transcript.end_time
        assert other.baselines == {dev: k * rtt for dev, rtt in one.baselines.items()}

    @given(st.sampled_from(SCENARIOS), st.integers(0, 2**32), CASTS)
    @settings(deadline=None)
    def test_relabelling_the_cast_keeps_the_row(self, config, seed, cast):
        # the payloads change with the cast: e1 binds the claimant, and the
        # link key both addresses
        expected = cli.report_line(config, run_scenario(config, seed))
        with pytest.MonkeyPatch.context() as patch:
            for name, address in zip(("ADDR_A", "ADDR_B", "ADDR_C"), cast):
                patch.setattr(cli, name, address)
            relabelled = dataclasses.replace(config)
            result = run_scenario(relabelled, seed)
        assert cli.report_line(relabelled, result) == expected
        parties = {party for e in result.transcript.events for party in (e.from_id, e.to_id)}
        assert parties <= set(cast)

    @given(
        st.sampled_from(SCENARIOS),
        st.integers(0, 2**32),
        st.integers(1, 60),
        st.lists(st.floats(1, 4, exclude_min=True), min_size=2, max_size=6),
    )
    @example(cli.HEADLINE[3], 0, 10, [1.99, 2.0])
    @settings(deadline=None)
    def test_a_run_flagged_at_a_factor_is_flagged_at_every_lower_one(
        self, config, seed, latency_ms, factors
    ):
        flagged = [
            run_scenario(
                dataclasses.replace(config, latency_ms=latency_ms, detect_factor=factor), seed
            ).score.detection is Detection.DELAY_FLAGGED
            for factor in sorted(factors)
        ]
        # flagged up to some factor, and at none above it
        assert flagged == sorted(flagged, reverse=True)


class TestCallBudget:
    """A valid run makes no call that does no work: every octet string and
    every typed value on a run's path passes its caller's inline pre-test,
    so neither check_octets nor check_type is reached, and no enum hash
    runs Enum.__hash__: every enum of the package derives from
    values.IdentityEnum and hashes by identity, among them the four a run
    hashes (Variant and IntruderMode in the intruder's plan table, MsgKind
    and Phase in the transition table, and MsgKind in the keys of the
    interned messages).
    A run computes only the digests of its keys, and no bootstrap key, and
    each scenario derives a fixed count of responses, seeds a fixed count
    of streams and builds a fixed count of messages, whatever the seed."""

    @staticmethod
    def counted(calls, name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    def test_headline_runs_reach_no_octet_check_and_no_enum_hash(self, monkeypatch):
        # no enum of the package keeps Enum's hash; this one does
        Plain = enum.Enum("Plain", "ONE")
        calls = collections.Counter()
        for module in (crypto, protocol, adversary):
            real = module.check_octets
            name = f"{module.__name__}.check_octets"
            monkeypatch.setattr(module, "check_octets", self.counted(calls, name, real))
        check_type = values.check_type
        typed = (crypto, draw, protocol, adversary, simnet, cli)
        for module in typed:
            name = f"{module.__name__}.check_type"
            monkeypatch.setattr(module, "check_type", self.counted(calls, name, check_type))
        monkeypatch.setattr(
            enum.Enum, "__hash__", self.counted(calls, "Enum.__hash__", enum.Enum.__hash__)
        )
        for config in cli.HEADLINE:
            for seed in range(3):
                run_scenario(config, seed)
        assert calls == {}

        # the counters see a value that fails a pre-test, and a plain enum
        with pytest.raises(TypeError):
            crypto.combination_link_key(bytearray(16), cli.ADDR_A, bytes(16), cli.ADDR_B)
        with pytest.raises(ValueError):
            new_device(cli.ADDR_A, Variant.LEGACY, bytes(15), 0)
        with pytest.raises(ValueError):
            IntruderState(
                bytes(5), IntruderMode.RELAY_PASSIVE, Variant.LEGACY, cli.ADDR_A, cli.ADDR_B, 0
            )
        hash(Plain.ONE)
        with pytest.raises(TypeError):
            # the group that the runs above cached, built with no count
            crypto.dh_keypair(cli.HEADLINE[-1].prepared[1], 1.0)
        with pytest.raises(TypeError):
            new_device(cli.ADDR_A, "legacy", bytes(16), 0)
        # draw.party_draws checks each party's seed
        with pytest.raises(TypeError):
            new_device(cli.ADDR_A, Variant.LEGACY, bytes(16), True)
        with pytest.raises(TypeError):
            IntruderState(
                bytes(6), IntruderMode.RELAY_PASSIVE, Variant.LEGACY, cli.ADDR_A, cli.ADDR_B, 0.0
            )
        with pytest.raises(TypeError):
            LinkConfig(10.0)
        # transcript_rtt has no pre-test, as only building a configuration
        # calls it: a valid transcript costs its check_type call too
        with pytest.raises(TypeError):
            transcript_rtt(None, cli.ADDR_A)
        with pytest.raises(TypeError):
            transcript_rtt(run_scenario(cli.HEADLINE[0], 0).transcript, bytearray(cli.ADDR_A))
        with pytest.raises(TypeError):
            run_scenario(cli.HEADLINE[0], True)
        with pytest.raises(TypeError):
            draw.master_draw(1.0)
        assert calls == {
            "btauthsim.crypto.check_octets": 1,
            "btauthsim.protocol.check_octets": 1,
            "btauthsim.adversary.check_octets": 2,
            "Enum.__hash__": 1,
            **{f"{module.__name__}.check_type": 1 for module in typed},
            "btauthsim.draw.check_type": 3,
            "btauthsim.adversary.check_type": 2,
        }

    def test_headline_runs_compute_no_bootstrap_key(self, monkeypatch):
        # every run computes the link key once, and combination_link_key
        # runs both of its digests itself, as the session-key memo runs
        # each of its own on a miss, so no run reaches mixhash128. The
        # session digests: one in a dh-improved run whose devices agree,
        # two under an active relay
        digests = {config.scenario_name: [0, 0, 0] for config in cli.HEADLINE}
        digests["dh-improved+none"] = digests["dh-improved+relay-passive"] = [1, 1, 1]
        digests["dh-improved+relay-active"] = [2, 2, 2]
        for config in cli.HEADLINE:
            # the calibration run of a configuration is not any run's work
            config.prepared
        calls = collections.Counter()
        monkeypatch.setattr(crypto, "mixhash128", self.counted(calls, "mixhash128", mixhash128))
        link_key = self.counted(calls, "combination_link_key", combination_link_key)
        monkeypatch.setattr(cli, "combination_link_key", link_key)
        for module in (crypto, cli):
            monkeypatch.setattr(module, "init_key", self.counted(calls, "init_key", init_key))
        counts = {}
        for config in cli.HEADLINE:
            for seed in range(3):
                before = calls["combination_link_key"]
                run_scenario(config, seed)
                digested = crypto._session_key_of.cache_info().misses
                assert calls["combination_link_key"] - before == 1
                counts.setdefault(config.scenario_name, []).append(digested)
        assert counts == digests
        assert calls["init_key"] == calls["mixhash128"] == 0

    def test_headline_runs_derive_and_seed_a_fixed_count(self, monkeypatch):
        # (e1 derivations, Stream seedings) of a run: a stream for the run,
        # one for each device and one for an intruder whose script draws
        budget = {config.scenario_name: (2, 3) for config in cli.HEADLINE}
        budget["legacy+originate"] = (2, 4)
        budget["improved+originate"] = (0, 4)
        budget["dh-improved+relay-active"] = (3, 4)
        budget["dh-improved+relay-passive"] = (4, 3)
        for config in cli.HEADLINE:
            # as above: the calibration run is not any run's work
            config.prepared
        calls = collections.Counter()
        # every stream is seeded in draw, by master_draw or party_draws
        monkeypatch.setattr(draw, "Stream", self.counted(calls, "Stream", draw.Stream))
        counts = {}
        for config in cli.HEADLINE:
            for seed in range(3):
                before = calls["Stream"]
                run_scenario(config, seed)
                derived = crypto.e1.cache_info().misses
                counts.setdefault(config.scenario_name, []).append((derived, calls["Stream"] - before))
        assert counts == {name: [pair] * 3 for name, pair in budget.items()}

    def test_headline_runs_build_a_fixed_count_of_values(self, monkeypatch):
        # Message constructions of a run, once one run of its configuration
        # has interned its AuthRequests (an intruder's too), AuthSuccess and
        # AuthFail: the challenges, responses and public values it sends,
        # and the other messages an intruder forges or opens with
        budget = {config.scenario_name: 4 for config in cli.HEADLINE}
        budget["dh-improved+none"] = budget["dh-improved+relay-passive"] = 6
        budget["dh-improved+relay-active"] = 7
        budget["legacy+originate"] = 7
        for config in cli.HEADLINE:
            run_scenario(config, 0)
        calls = collections.Counter()
        counted = self.counted(calls, "Message", protocol.Message.__init__)
        monkeypatch.setattr(protocol.Message, "__init__", counted)
        # the records have no __init__ of their own, and a run builds each
        # in one tuple.__new__ call, past the class's own __new__
        for cls in (protocol.AuthOutcome, adversary.AttackVerdict):
            monkeypatch.setattr(cls, "__new__", self.counted(calls, cls.__name__, cls.__new__))
        counts = {}
        for config in cli.HEADLINE:
            for seed in range(3):
                before = calls["Message"]
                run_scenario(config, seed)
                counts.setdefault(config.scenario_name, []).append(calls["Message"] - before)
        assert counts == {name: [count] * 3 for name, count in budget.items()}
        assert calls["AuthOutcome"] == calls["AttackVerdict"] == 0

        # the counters see a record built through its class
        protocol.AuthOutcome(protocol.AuthStatus.FAILED, None)
        adversary.AttackVerdict(False, None, None, None)
        assert calls["AuthOutcome"] == calls["AttackVerdict"] == 1

    def test_headline_runs_seed_no_stream_through_random_seed(self, monkeypatch):
        # every stream of a run is a Stream, seeded through the generator's
        # own routine; random.Random(seed) would call random.Random.seed
        calls = collections.Counter()
        real = random.Random.seed
        monkeypatch.setattr(random.Random, "seed", self.counted(calls, "seed", real))
        for config in cli.HEADLINE:
            for seed in range(3):
                run_scenario(config, seed)
        assert calls == {}

        # the counter sees a stream seeded through that method
        random.Random(0)
        assert calls == {"seed": 1}
