"""The scripts' documented output."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_block(after: str) -> list[str]:
    """Lines of the first fenced block that follows the line `after`."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(after)
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    closing = lines.index("```", opening + 1)
    return lines[opening + 1 : closing]


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
