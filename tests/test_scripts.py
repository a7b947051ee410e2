"""The scripts' documented output."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from support import load_script

from btauthsim import cli
from btauthsim.cli import DH_P_CAP
from btauthsim.crypto import DhParams

ROOT = Path(__file__).resolve().parent.parent


def readme_block(after: str) -> list[str]:
    """Lines of the first fenced block that follows the line `after`."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(after)
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    closing = lines.index("```", opening + 1)
    return lines[opening + 1 : closing]


def readme_cli_examples() -> list[list[str]]:
    """The arguments of each btauthsim line in the README's CLI block."""
    commands = [shlex.split(line, comments=True) for line in readme_block("## CLI")]
    return [command[1:] for command in commands if command[:1] == ["btauthsim"]]


def test_readme_cli_block_lists_examples():
    assert len(readme_cli_examples()) >= 5


@pytest.mark.parametrize("args", readme_cli_examples(), ids=lambda args: " ".join(args) or "defaults")
def test_readme_cli_example_runs(capsys, args):
    assert cli.main(args) == 0
    assert "scenario=" in capsys.readouterr().out


def test_attack_matrix_matches_readme(capsys):
    status = load_script("attack_matrix").main(["--seeds", "20"])
    table = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert status == 0
    assert table == readme_block("The matrix over the default seeds:")


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_attack_matrix_rejects_fewer_than_one_seed(capsys, seeds):
    with pytest.raises(SystemExit) as exit_info:
        load_script("attack_matrix").main(["--seeds", seeds])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--seeds must be at least 1, got {seeds}" in captured.err


def test_attack_matrix_rejects_a_negative_base_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("attack_matrix").main(["--base-seed", "-1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--base-seed must be non-negative, got -1" in captured.err


def test_dlog_cost_recovers_every_exponent(capsys):
    status = load_script("dlog_cost").main(["--trials", "20"])
    out = capsys.readouterr().out
    assert status == 0
    assert "trials: 20, all exponents recovered exactly" in out
    assert re.search(r"^mean iterations: [\d.]+ \(expected ~5003\.0, ratio [\d.]+\)$", out, re.M)


def test_dlog_cost_measure_refuses_a_wrong_recovery():
    # a raise rather than an assert, so python -O keeps the check
    script = load_script("dlog_cost")
    # 0 is never drawn, so every recovery is wrong; the module is this
    # test's own copy, so nothing needs restoring
    script.dlog_bruteforce = lambda params, public: (0, 1)
    with pytest.raises(RuntimeError, match="recovered 0, expected"):
        script.measure(DhParams(10007, 5), 20, 0)


def test_dlog_cost_measure_draws_fixed_exponents():
    # the exponents drawn from seed 0, pinned by the scan costs that recover them
    costs, _ = load_script("dlog_cost").measure(cli.check_group(10007, 5), 5, 0)
    assert costs == [6312, 6891, 664, 4243, 8377]


@pytest.mark.parametrize(
    "args,message",
    [
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--seed", "-3"], "--seed must be non-negative, got -3"),
        (["--dh-p", "24"], "dh-p/dh-alpha: p must be prime, got 24"),
        (["--dh-p", "23", "--dh-alpha", "2"], "dh-alpha 2 is not a primitive root of 23"),
    ],
    ids=["no-trials", "negative-seed", "composite-p", "non-generator"],
)
def test_dlog_cost_usage_errors(capsys, args, message):
    with pytest.raises(SystemExit) as exit_info:
        load_script("dlog_cost").main(args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("dh_p", [DH_P_CAP, 2**61 - 1], ids=["at-cap", "mersenne-61"])
def test_dlog_cost_rejects_a_modulus_at_or_above_the_cap(dh_p):
    # a subprocess with a timeout: a modulus let through would scan for ages
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dlog_cost.py"),
         "--dh-p", str(dh_p), "--dh-alpha", "37", "--trials", "1"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"dh-p must be below 2^48, got {dh_p}" in done.stderr


def test_golden_vectors_check_accepts_the_generated_file(tmp_path, capsys):
    script = load_script("gen_golden_vectors")
    path = tmp_path / "golden_vectors.txt"
    path.write_text(script.render(script.build_rows()))
    assert script.main(["--check", "--path", str(path)]) == 0
    assert capsys.readouterr() == (f"ok: {path}\n", "")


def test_golden_vectors_check_names_the_rows_that_moved(tmp_path, capsys):
    script = load_script("gen_golden_vectors")
    rows = script.build_rows()
    # the first row's output changed, and the last row gone
    name, data, digest = rows[0]
    stale = script.render([(name, data, "00" * 16), *rows[1:-1]])
    path = tmp_path / "golden_vectors.txt"
    path.write_text(stale)
    assert script.main(["--check", "--path", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[:2] == [f"--- {path}", "+++ generated"]
    # between the file names and the stale line, the hunk's changed lines
    assert [line for line in lines[2:-1] if line[0] in "-+"] == [
        f"-{name},{data},{'00' * 16}",
        f"+{name},{data},{digest}",
        "+" + ",".join(rows[-1]),
    ]
    assert lines[-1] == f"stale: {path}"
    # a check rewrites nothing
    assert path.read_text() == stale


def test_golden_vectors_check_reports_a_missing_file(tmp_path, capsys):
    path = tmp_path / "golden_vectors.txt"
    assert load_script("gen_golden_vectors").main(["--check", "--path", str(path)]) == 1
    assert capsys.readouterr() == ("", f"missing: {path}\n")
    assert not path.exists()
