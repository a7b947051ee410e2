"""Test the contract table: each argument check in SCOPE, replaced by pass
in a copy of src/, must make tests/test_contracts.py fail.

A check is a check_*(...) statement, an if whose body is one or is a
raise of TypeError, ValueError or ConfigError (an if with an else gives
way to its else), or an if with no else whose body ends in such a raise;
the one statement of an if with no else is not a check of its own. Each
mutant runs pytest -q -x on the table in a subprocess, one per CPU at a
time, each worker on its own copy of src/; the lines print in mutant
order. Exit status 1 when a mutant survives that SURVIVORS does not list
with its reason, or when SURVIVORS lists one that did not.
Run from the repository root: python tests/contract_mutants.py
"""

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "btauthsim"
TABLE = "tests/test_contracts.py"
RAISED = ("TypeError", "ValueError", "ConfigError")

# module -> the functions of the table's entry points and of the checks they call
SCOPE = {
    "values.py": ["check_octets", "check_type"],
    "draw.py": ["Stream", "master_draw", "party_draws"],
    "crypto.py": [
        "xor_bytes", "mixhash128", "e1", "init_key", "combination_link_key", "DhParams.__init__",
        "dh_keypair", "check_public", "dh_shared", "session_key_from_shared", "session_key",
    ],
    "protocol.py": ["Message.__init__", "new_device"],
    "adversary.py": [
        "IntruderState.__init__", "transcript_rtt", "_detection", "delay_detector", "verdict",
        "dlog_bruteforce",
    ],
    "simnet.py": ["LinkConfig.__init__"],
    "cli.py": [
        "ScenarioConfig.__init__", "check_group", "_prepared", "_check_seed", "run_scenario",
    ],
}

# (module, function, source line of the check) -> the test that pins it: each
# is a fact across two parameters, which no one-parameter row can break
SURVIVORS = {
    ("crypto.py", "xor_bytes", "if len(a) != len(b):"):
        "TestXorBytes.test_unequal_lengths_rejected",
    ("protocol.py", "Message.__init__", "if sender == receiver:"):
        "TestMessageValidation.test_self_addressed_rejected",
    ("adversary.py", "IntruderState.__init__", "if len({id, victim_a, victim_b}) < 3:"):
        "TestScripts.test_addresses_must_be_distinct",
    ("adversary.py", "verdict", "if a not in baselines or b not in baselines:"):
        "TestVerdictPlumbing.test_baselines_must_cover_both_devices",
}


def is_check_call(node: ast.AST) -> bool:
    call = node.value if isinstance(node, ast.Expr) else None
    func = call.func if isinstance(call, ast.Call) else None
    return isinstance(func, ast.Name) and func.id.startswith("check_")


def raises(node: ast.AST) -> bool:
    exc = node.exc.func if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) else None
    return isinstance(exc, ast.Name) and exc.id in RAISED


def is_check(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return is_check_call(node)
    if len(node.body) == 1:
        return is_check_call(node.body[0]) or raises(node.body[0])
    return not node.orelse and raises(node.body[-1])


def checks(module: str, source: str) -> list[tuple[str, ast.stmt]]:
    """(function, statement) of each check in the functions SCOPE names."""
    found = {}
    for node in ast.parse(source).body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        found.update((prefix + m.name, m) for m in methods if isinstance(m, ast.FunctionDef))
    if set(SCOPE[module]) - set(found):
        raise SystemExit(f"{module}: no function {sorted(set(SCOPE[module]) - set(found))}")
    listed = [(name, n) for name in SCOPE[module] for n in ast.walk(found[name]) if is_check(n)]
    # dropping an if with no else whose one statement is a check call leaves
    # the program that dropping the call leaves, so the call is no mutant
    inner = {id(n.body[0]) for _, n in listed
             if isinstance(n, ast.If) and not n.orelse and is_check_call(n.body[0])}
    return [(name, n) for name, n in listed if id(n) not in inner]


class Drop(ast.NodeTransformer):
    def __init__(self, target: ast.stmt):
        self.at = (target.lineno, target.col_offset)

    def generic_visit(self, node):
        node = super().generic_visit(node)
        if isinstance(node, ast.stmt) and (node.lineno, node.col_offset) == self.at:
            return node.orelse if isinstance(node, ast.If) and node.orelse else ast.Pass()
        return node


def table_passes(src: Path) -> bool:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", TABLE]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode == 0


def sound(src: Path) -> bool:
    """Whether the table imports the package from src and passes on it."""
    probe = [sys.executable, "-c", "import btauthsim; print(btauthsim.__file__)"]
    env = dict(os.environ, PYTHONPATH=str(src))
    where = subprocess.run(probe, env=env, capture_output=True, text=True).stdout
    return where.startswith(str(src)) and table_passes(src)


def main() -> int:
    started, survived = time.monotonic(), {}
    mutants = [
        (module, source, function, node)
        for module in SCOPE
        for source in [(PACKAGE / module).read_text()]
        for function, node in checks(module, source)
    ]
    workers = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(workers) as pool:
        # one copy of src/ per worker, each taken by one mutant at a time
        srcs = [Path(scratch) / str(n) / "src" for n in range(workers)]
        copies = queue.SimpleQueue()
        for src in srcs:
            shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(src)

        def killed(mutant) -> bool:
            module, source, _, node = mutant
            src = copies.get()
            target = src / "btauthsim" / module
            try:
                target.write_text(ast.unparse(Drop(node).visit(ast.parse(source))))
                return not table_passes(src)
            finally:
                target.write_text(source)
                copies.put(src)

        if not all(pool.map(sound, srcs)):
            raise SystemExit("the table does not import a copy, or fails on it unmutated")
        for (module, source, function, node), dead in zip(mutants, pool.map(killed, mutants)):
            key = (module, function, source.splitlines()[node.lineno - 1].strip())
            status = "killed" if dead else "SURVIVED"
            print(f"{status:8} {module}:{node.lineno} {function}: {key[2]}", flush=True)
            if not dead:
                survived[key] = SURVIVORS.get(key)
    print(f"{len(mutants)} mutants, {len(survived)} survived, in {time.monotonic() - started:.0f} s")
    for key, reason in survived.items():
        print(f"survivor {key}: " + (f"pinned by {reason}" if reason else "NOT LISTED"))
    for key in SURVIVORS.keys() - survived.keys():
        print(f"listed, but not a survivor: {key}")
    return 1 if None in survived.values() or SURVIVORS.keys() - survived.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
