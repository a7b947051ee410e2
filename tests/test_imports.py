"""Every name a module imports is read somewhere in that module, and so is
every private name a program module defines at its top level; every name a
program module exports is bound at its top level.

A deletion that leaves an import, a constant, a helper or an export behind
fails here. A name listed in the module's ``__all__`` counts as read, since
the module exports it.

No test module binds at its top level a name that tests/support.py
defines: the harness the tests share has one copy, which they import. And
no test module but tests/support.py reaches simnet.run, by name or as
simnet.run: every run a test drives goes through support.run_of.

No script under scripts/ has an assert statement: python -O strips it,
so a script's check raises instead.

No function of the package but the ``__init__`` of a frozen value class
reads ``self.__dict__``: each stores its fields there in one step, past the
frozen ``__setattr__``.

Every class of the package that holds fields is a value class or a record.
A record is a direct subclass of a ``collections.namedtuple`` class, with
``__slots__ = ()`` and none of ``__init__``, ``__new__``, ``__eq__``,
``__hash__``, ``__repr__`` or ``__setattr__`` in its body: the tuple of its
fields is all it stores, and it is built, shown, compared and hashed as
that tuple's namedtuple.

No module of the package imports ``typing``, which it needs nothing from:
imported after the package, ``typing`` takes 2.3 to 3.7 ms of self time
(``python -S -X importtime``, Python 3.11.7 on a 2-CPU Linux host), against
about 22 ms for the whole set-up of a benchmark workload (``perfbench``'s
``host.setup_s`` on matrix), and a record made by ``typing.NamedTuple``
would import it.

Nor does any module of the package import ``random``: a run's draws rest
only on ``_random``'s seeding of an int and on ``getrandbits``
(``draw.Stream``), not on ``random.py``'s Python-level methods, which
another Python version may define otherwise and which cost a Python frame
per draw; the tests keep ``random.Random`` as the oracle each draw equals.
No module of the package but ``draw`` imports ``_random`` or calls
``getrandbits``, so a change of the stream is a change of ``draw`` alone.

``values`` imports no module of the package, so every module can import
it, and ``simnet``, which runs no cryptography, imports nothing from
``crypto``. No module of the package imports a private name of another,
or reads one as an attribute of it: what one module uses of another is
that module's public interface, so its private names change with it alone.

No module of the package but ``values`` applies ``dataclasses.dataclass``
or ``make_dataclass``, and every value class of the package runs the
``__repr__``, ``__eq__`` and ``__hash__`` code of ``values.value_class``:
a new value class brings back no per-class generated methods (a record's
namedtuple evals one ``__new__``, the one method it generates). Nor does any
function in a value class's body come from source generated at import:
each class writes its own ``__init__`` and its own docstring, so
``dataclass`` neither execs an ``__init__`` nor calls ``inspect.signature``
to write a docstring, and ``value_class`` refuses a class without an
``__init__`` of its own.

Every enum of the package derives from ``values.IdentityEnum``, and none
but that base defines ``__hash__``: the rule that a member hashes by
identity is declared once.

Every name that ``crypto``, ``values`` or ``draw`` exports is read by the
package or by a script that measures it (attack_matrix.py, dlog_cost.py),
outside its own definition, or has its reason in UNREAD_EXPORTS: a
function that no run, judge or analysis reaches is retired, not kept for
its own tests.
gen_golden_vectors.py is no reader, since it pins whatever exists.

Every ``functools.lru_cache``, ``cache`` and ``cached_property`` of the
package is named in the first column of README's fast-path ledger, and
every name there exists: a cache stays only with the measurement that
justifies it, and a row goes with the code it names.
"""

import ast
import collections
import dataclasses
import enum
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

from btauthsim import crypto, draw, values

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))
PACKAGE = sorted(ROOT.glob("src/btauthsim/*.py"))
PROGRAM = sorted([*PACKAGE, *SCRIPTS])
MODULES = sorted([*PROGRAM, *ROOT.glob("tests/*.py")])
SUPPORT = ROOT / "tests" / "support.py"
README = ROOT / "README.md"
LEDGER = "## Fast-path ledger"
CACHES = {"lru_cache", "cache", "cached_property"}
SIMNET = "btauthsim.simnet"
MAKERS = {"dataclass", "make_dataclass"}
EXPORT_READERS = [
    *PACKAGE, ROOT / "scripts" / "attack_matrix.py", ROOT / "scripts" / "dlog_cost.py",
]
# the modules whose every export a reader reads
READ_MODULES = (crypto, values, draw)
# the names those modules export that no reader reads, each with its reason
UNREAD_EXPORTS = {
    "dh_shared": "the session-key tests compare session_key against it",
    "session_key_from_shared": "the session-key tests compare session_key against it",
    "init_key": "perfbench/spans.py patches cli.init_key, and PIN pairing would put it on a "
                "run's path",
}


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    return sorted(set(imported) - read_names(tree) - exported(tree))


def defined_names(tree: ast.Module) -> list[str]:
    """The names the module's top level binds by assignment, def or class."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return defined


def unread_private_names(source: str) -> list[str]:
    """The private names (a leading underscore, and not a dunder) that the
    module's top level binds by assignment, def or class, and that nothing
    in the module reads."""
    tree = ast.parse(source)
    private = {name for name in defined_names(tree) if name.startswith("_") and not name.endswith("__")}
    return sorted(private - read_names(tree))


def unbound_exports(source: str) -> list[str]:
    """The names in the module's ``__all__`` that its top level binds by
    none of def, class, assignment or import."""
    tree = ast.parse(source)
    bound = set(defined_names(tree))
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(exported(tree) - bound)


def run_references(source: str) -> list[int]:
    """The lines on which the module imports run from btauthsim.simnet, or
    reads run as an attribute of simnet or of btauthsim.simnet."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == SIMNET
            and "run" in [alias.name for alias in node.names])
        or (isinstance(node, ast.Attribute) and node.attr == "run"
            and ast.unparse(node.value) in ("simnet", SIMNET))
    )


def assert_lines(source: str) -> list[int]:
    """The lines of the module's assert statements."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def dataclass_lines(source: str) -> list[int]:
    """The lines on which the module imports dataclass or make_dataclass
    from dataclasses, or reads either as an attribute of dataclasses."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and MAKERS & {alias.name for alias in node.names})
        or (isinstance(node, ast.Attribute) and node.attr in MAKERS
            and ast.unparse(node.value) == "dataclasses")
    )


def outside_reads(source: str) -> set[str]:
    """The names the module reads, outside the top-level def or class that
    binds the name; setting an attribute of a name does not read it."""
    reads = set()
    for top in ast.parse(source).body:
        nodes = list(ast.walk(top))
        set_on = {
            id(node.value)
            for node in nodes
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
        }
        reads |= {
            node.id
            for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and id(node) not in set_on and node.id != getattr(top, "name", None)
        }
    return reads


def generated_methods(cls: type) -> list[str]:
    """The names of the functions in cls's body whose code was not compiled
    from the file of the module they belong to: source generated and exec'd."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if isinstance(value, types.FunctionType)
        and value.__code__.co_filename != getattr(sys.modules.get(value.__module__), "__file__", "")
    )


def dict_readers(source: str) -> list[str]:
    """The qualified names of the functions that read self.__dict__."""
    readers = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "__dict__"
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    for n in ast.walk(child)
                ):
                    readers.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return readers


def import_lines(source: str, module: str) -> list[int]:
    """The lines on which the source imports module or a submodule of it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import)
            and module in [alias.name.partition(".")[0] for alias in node.names])
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.partition(".")[0] == module)
    )


def ledger_names(text: str) -> list[str]:
    """The dotted names in backticks in the first cell of each row of the
    table under the README's ledger heading, up to the next heading."""
    section = text.partition(LEDGER)[2].partition("\n## ")[0]
    return [
        name
        for line in section.splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`(\w+\.[\w.]+)`", line.split("|")[1])
    ]


def cached_names(source: str, module: str) -> list[str]:
    """module.name of each function or method defined at the module's top
    level or in a top-level class under a cache decorator, and of each
    top-level name assigned a cache built by a call."""
    def is_cache(node: ast.AST) -> bool:
        return any(
            (isinstance(n, ast.Attribute) and n.attr in CACHES and ast.unparse(n.value) == "functools")
            or (isinstance(n, ast.Name) and n.id in CACHES)
            for n in ast.walk(node)
        )

    found = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(is_cache(decorator) for decorator in node.decorator_list):
                    found.append(prefix + node.name)
            elif isinstance(node, ast.Assign) and is_cache(node.value):
                found.extend(prefix + t.id for t in node.targets if isinstance(t, ast.Name))

    visit(ast.parse(source).body, f"{module}.")
    return found


# a record's class body holds none of these: the namedtuple's are its own
RECORD_OWN = {"__init__", "__new__", "__eq__", "__hash__", "__repr__", "__setattr__"}
# _make's code is one constant of collections.namedtuple, shared by every class it makes
NAMEDTUPLE_MAKE = vars(collections.namedtuple("Probe", ""))["_make"].__func__.__code__


def is_namedtuple(cls: type) -> bool:
    """Whether collections.namedtuple made cls."""
    make = vars(cls).get("_make")
    return isinstance(make, classmethod) and make.__func__.__code__ is NAMEDTUPLE_MAKE


def record_faults(classes) -> list[str]:
    """The names of the classes among classes that hold fields, declared in
    the body or stored in a tuple, and are neither a value class (a
    dataclass) nor a record: a direct subclass of a namedtuple class, with
    __slots__ = () and no name of RECORD_OWN in its body."""
    return [
        cls.__name__
        for cls in classes
        if (issubclass(cls, tuple) or "__annotations__" in vars(cls))
        and not dataclasses.is_dataclass(cls)
        and not (
            len(cls.__bases__) == 1 and is_namedtuple(cls.__bases__[0])
            and vars(cls).get("__slots__") == ()
            and not RECORD_OWN & vars(cls).keys()
        )
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PROGRAM, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", PROGRAM, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_exported_name_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_no_test_module_rebinds_a_support_name():
    shared = set(defined_names(ast.parse(SUPPORT.read_text())))
    rebound = {
        path.name: sorted(shared.intersection(defined_names(ast.parse(path.read_text()))))
        for path in ROOT.glob("tests/*.py")
        if path != SUPPORT
    }
    assert {name: names for name, names in rebound.items() if names} == {}


def test_only_support_drives_a_run():
    callers = {path.name for path in ROOT.glob("tests/*.py") if run_references(path.read_text())}
    assert callers == {SUPPORT.name}


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from btauthsim.simnet import LinkConfig, run as go\ngo(a, b, None, links)\n", [1]),
        ("from btauthsim import simnet\nsimnet.run(a, b, None, links)\n", [2]),
        ("import btauthsim.simnet\nf = btauthsim.simnet.run\n", [2]),
        ("def f():\n    from btauthsim import simnet\n    return simnet.run\n", [3]),
        ("from btauthsim.simnet import transcript_rtt\nsimnet.handle\nsubprocess.run([])\n", []),
    ],
)
def test_the_run_check_itself(source, lines):
    assert run_references(source) == lines


def test_no_script_check_rests_on_an_assert():
    asserts = {path.name: assert_lines(path.read_text()) for path in SCRIPTS}
    assert {name: lines for name, lines in asserts.items() if lines} == {}


def test_the_assert_check_itself():
    source = "assert x\ndef f():\n    if not x:\n        raise ValueError\n    assert y, 'y'\n"
    assert assert_lines(source) == [1, 5]


def test_one_function_stores_a_record_by_hand():
    readers = [f"{path.stem}.{name}" for path in PACKAGE for name in dict_readers(path.read_text())]
    assert readers == [
        "cli.ScenarioConfig.__init__", "crypto.DhParams.__init__", "protocol.Message.__init__",
        "simnet.LinkConfig.__init__",
    ]


@pytest.mark.parametrize(
    "source,readers",
    [
        ("def f(self):\n    self.__dict__.update(a=1)\n", ["f"]),
        ("class C:\n    def __init__(self):\n        d = self.__dict__\n", ["C.__init__"]),
        ("class C:\n    class D:\n        def g(self):\n            self.__dict__\n", ["C.D.g"]),
        ("def f(self):\n    def g():\n        self.__dict__\n", ["f", "f.g"]),
        ("def f(other):\n    other.__dict__\n", []),
        ("exec('def f(self):\\n    self.__dict__')\n", []),
    ],
)
def test_the_dict_check_itself(source, readers):
    assert dict_readers(source) == readers


def test_only_values_makes_a_dataclass():
    makers = {path.stem for path in PACKAGE if dataclass_lines(path.read_text())}
    assert makers == {"values"}


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from dataclasses import dataclass\n@dataclass\nclass C:\n    a: int\n", [1]),
        ("from dataclasses import field, dataclass as d\n", [1]),
        ("import dataclasses\nC = dataclasses.make_dataclass('C', ['a'])\n", [2]),
        ("from dataclasses import field, fields\nfrom .crypto import value_class\n", []),
    ],
)
def test_the_dataclass_check_itself(source, lines):
    assert dataclass_lines(source) == lines


def importers(module: str) -> dict[str, list[int]]:
    """The package modules that import module, with the lines that do."""
    lines = {path.name: import_lines(path.read_text(), module) for path in PACKAGE}
    return {name: found for name, found in lines.items() if found}


def test_no_package_module_imports_typing():
    assert importers("typing") == {}


def test_no_package_module_imports_random():
    assert importers("random") == {}


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import typing\n", [1]),
        ("import os, typing as t\n", [1]),
        ("from typing import NamedTuple\n", [1]),
        ("def f():\n    from typing import Any\n", [2]),
        ("import typing_extensions\nfrom .typing import x\nfrom collections import abc\n", []),
    ],
)
def test_the_typing_check_itself(source, lines):
    assert import_lines(source, "typing") == lines


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import random\n", [1]),
        ("from random import Random\n", [1]),
        ("import _random\nfrom .random import x\nimport randomness\n", []),
    ],
)
def test_the_random_check_itself(source, lines):
    assert import_lines(source, "random") == lines


def stream_lines(source: str) -> list[int]:
    """The lines on which the source imports _random or reads getrandbits
    as an attribute, to call it or otherwise."""
    return sorted(
        set(import_lines(source, "_random"))
        | {node.lineno for node in ast.walk(ast.parse(source))
           if isinstance(node, ast.Attribute) and node.attr == "getrandbits"}
    )


def package_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each module of the package that the source
    imports, relatively or as btauthsim, or imports a name from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[2]) for alias in node.names
                      if alias.name.startswith("btauthsim.")]
        elif isinstance(node, ast.ImportFrom):
            # the module after the package: "" for from . import a, b
            package, _, module = ("btauthsim." + (node.module or "") if node.level
                                  else node.module).partition(".")
            if package == "btauthsim":
                names = [module] if module else [alias.name for alias in node.names]
                found += [(node.lineno, name) for name in names]
    return found


def test_only_draw_touches_the_generator():
    touching = {path.stem for path in PACKAGE if stream_lines(path.read_text())}
    assert touching == {"draw"}


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import _random\n", [1]),
        ("from _random import Random\n", [1]),
        ("x = 1\nseed = stream.getrandbits(64)\n", [2]),
        ("def f(s):\n    draw = s.getrandbits\n    return draw(8)\n", [2]),
        ("import random\nfrom .draw import Stream\ngetrandbits = 1\n", []),
    ],
)
def test_the_generator_check_itself(source, lines):
    assert stream_lines(source) == lines


def test_values_imports_no_module_of_the_package():
    assert package_imports((ROOT / "src" / "btauthsim" / "values.py").read_text()) == []


def test_simnet_imports_nothing_from_crypto():
    imported = package_imports((ROOT / "src" / "btauthsim" / "simnet.py").read_text())
    assert imported and "crypto" not in [module for _, module in imported]


@pytest.mark.parametrize(
    "source,imported",
    [
        ("from .crypto import e1\n", [(1, "crypto")]),
        ("from . import crypto, draw\n", [(1, "crypto"), (1, "draw")]),
        ("from btauthsim.crypto import e1\n", [(1, "crypto")]),
        ("from btauthsim import crypto\n", [(1, "crypto")]),
        ("import os\nimport btauthsim.crypto as c\n", [(2, "crypto")]),
        ("def f():\n    from .values import check_type\n", [(2, "values")]),
        ("import functools\nfrom dataclasses import field\nfrom btauthsimx import a\n", []),
    ],
)
def test_the_package_import_check_itself(source, imported):
    assert package_imports(source) == imported


def is_private(name: str) -> bool:
    """A leading underscore, and not a dunder."""
    return name.startswith("_") and not name.endswith("__")


MODULE_NAMES = {path.stem for path in PACKAGE} - {"__init__"}


def private_references(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name that the source imports from a
    module of the package, relatively or as btauthsim, or reads as an
    attribute of a package module, named as itself or as btauthsim.module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "btauthsim." + (node.module or "") if node.level else node.module
            if module.partition(".")[0] == "btauthsim":
                found += [(node.lineno, alias.name) for alias in node.names if is_private(alias.name)]
        elif (isinstance(node, ast.Attribute) and is_private(node.attr)
              and ast.unparse(node.value).removeprefix("btauthsim.") in MODULE_NAMES):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_package_module_reaches_another_ones_private_name():
    found = {path.name: private_references(path.read_text()) for path in PACKAGE}
    assert {name: names for name, names in found.items() if names} == {}


@pytest.mark.parametrize(
    "source,found",
    [
        ("from .simnet import Transcript, _one_pass\n", [(1, "_one_pass")]),
        ("from . import simnet\nsimnet._one_pass(t, a, b)\n", [(2, "_one_pass")]),
        ("from btauthsim.protocol import _control_message as make\n", [(1, "_control_message")]),
        ("import btauthsim.simnet\nf = btauthsim.simnet._new_tuple\n", [(2, "_new_tuple")]),
        ("def f():\n    from . import _hidden\n", [(2, "_hidden")]),
        ("from . import cli\ncli._prepared.cache_clear()\n", [(2, "_prepared")]),
        ("import _random\nfrom os import _exit\nsimnet.__name__\nself._held\nsimnet.run\n", []),
    ],
)
def test_the_private_name_check_itself(source, found):
    assert private_references(source) == found


PACKAGE_CLASSES = sorted(
    {
        value
        for path in PACKAGE
        for value in vars(importlib.import_module(f"btauthsim.{path.stem}")).values()
        if isinstance(value, type) and value.__module__.startswith("btauthsim.")
    },
    key=lambda cls: cls.__name__,
)


def test_every_class_with_fields_is_a_value_class_or_a_record():
    records = [cls.__name__ for cls in PACKAGE_CLASSES if is_namedtuple(cls.__bases__[0])]
    assert records == [
        "AttackVerdict", "AuthOutcome", "DhKeyPair", "ScenarioResult", "Transcript",
        "TranscriptEvent",
    ]
    assert record_faults(PACKAGE_CLASSES) == []


def test_the_record_check_itself():
    Pair = collections.namedtuple("Pair", "a b")

    class Record(Pair):
        __slots__ = ()

        def total(self):
            return self.a + self.b

    class Unslotted(Pair):
        pass

    class Nested(Record):
        __slots__ = ()

    class Initialised(Pair):
        __slots__ = ()

        def __init__(self, a, b):
            pass

    class Shown(Pair):
        __slots__ = ()
        __repr__ = tuple.__repr__

    class Made(tuple):
        __slots__ = ()
        _make = Pair._make

    class Annotated:
        a: int

    @dataclasses.dataclass
    class Value:
        a: int

    class Bare:
        pass

    classes = [Record, Pair, Unslotted, Nested, Initialised, Shown, Made, Annotated, Value, Bare]
    assert record_faults(classes) == [
        "Pair", "Unslotted", "Nested", "Initialised", "Shown", "Made", "Annotated",
    ]


VALUE_CLASSES = [cls for cls in PACKAGE_CLASSES if dataclasses.is_dataclass(cls)]


def test_every_value_class_runs_the_shared_methods():
    shared = {
        code.co_name: code
        for code in values.value_class.__code__.co_consts
        if isinstance(code, types.CodeType)
    }
    assert sorted(cls.__name__ for cls in VALUE_CLASSES) == [
        "DeviceState", "DhParams", "IntruderState", "LinkConfig", "Message", "ScenarioConfig",
    ]
    for cls in VALUE_CLASSES:
        assert cls.__repr__.__code__ is shared["__repr__"], cls
        assert cls.__eq__.__code__ is shared["__eq__"], cls
        assert cls.__hash__ is None or cls.__hash__.__code__ is shared["__hash__"], cls


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_value_class_writes_its_own_methods(cls):
    assert generated_methods(cls) == []
    # __init__ checks its arguments before it stores them: no dataclass
    # calls a __post_init__ after it
    assert "__post_init__" not in vars(cls)
    # a docstring in the body: dataclass would write one from inspect.signature;
    # cleandoc, as 3.13 strips the indentation ast.parse keeps
    tree = ast.parse(Path(sys.modules[cls.__module__].__file__).read_text())
    (node,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls.__name__
    ]
    assert ast.get_docstring(node)
    assert inspect.cleandoc(cls.__doc__) == ast.get_docstring(node)


@pytest.mark.parametrize(
    "make", [values.value_class, values.value_class(frozen=True)], ids=["value_class", "frozen"]
)
def test_a_value_class_needs_an_init_of_its_own(make):
    class Bare:
        """Fields and no __init__."""

        a: int

    with pytest.raises(TypeError, match="^value class Bare defines no __init__ of its own$"):
        make(Bare)


def test_the_generated_check_itself():
    namespace: dict = {"__name__": __name__}
    exec("def f(self):\n    pass\n", namespace)

    class Written:
        f = namespace["f"]

        def g(self):
            pass

    @dataclasses.dataclass
    class Made:
        a: int

    assert generated_methods(Written) == ["f"]
    assert generated_methods(Made) == ["__eq__", "__init__", "__repr__"]


ENUMS = [cls for cls in PACKAGE_CLASSES if issubclass(cls, enum.Enum)]


def enum_faults(classes, base: type) -> list[str]:
    """The names of the enums among classes, base aside, that do not derive
    from base or whose body defines __hash__."""
    return [
        cls.__name__
        for cls in classes
        if issubclass(cls, enum.Enum)
        and cls is not base
        and (not issubclass(cls, base) or "__hash__" in vars(cls))
    ]


def test_every_enum_hashes_by_identity():
    assert [cls.__name__ for cls in ENUMS] == [
        "AuthStatus", "Confidentiality", "Detection", "IdentityEnum", "Integrity",
        "IntruderMode", "MsgKind", "Phase", "Role", "Variant",
    ]
    assert enum_faults(ENUMS, values.IdentityEnum) == []
    assert vars(values.IdentityEnum)["__hash__"] is object.__hash__
    assert all(cls.__hash__ is object.__hash__ for cls in ENUMS)


def test_the_enum_check_itself():
    class Base(enum.Enum):
        __hash__ = object.__hash__

    class Plain(enum.Enum):
        ONE = 1

    class Derived(Base):
        ONE = 1

    class Restated(Base):
        ONE = 1
        __hash__ = object.__hash__

    assert enum_faults([Base, Plain, Derived, Restated, int], Base) == ["Plain", "Restated"]


def test_every_crypto_export_is_read():
    read = set().union(*(outside_reads(path.read_text()) for path in EXPORT_READERS))
    unread = {name for module in READ_MODULES for name in module.__all__} - read
    assert sorted(unread - UNREAD_EXPORTS.keys()) == []
    # and a reason goes once a reader reads its name
    assert sorted(UNREAD_EXPORTS.keys() - unread) == []


@pytest.mark.parametrize(
    "source,reads",
    [
        ("def f():\n    pass\ndef g():\n    return f()\n", {"f"}),
        ("def f():\n    return f\n", set()),
        ("class C:\n    def m(self):\n        return C()\n", set()),
        ("from .crypto import e1\ndef f(a):\n    return e1(a)\n", {"e1", "a"}),
        ("from .crypto import init_key\n__all__ = ['init_key']\n", set()),
        ("def f():\n    pass\nf.cache_clear = g\n", {"g"}),
        ("from btauthsim import crypto\ncrypto.e1(k)\n", {"crypto", "k"}),
        ("def g():\n    return f()\ndef f():\n    return f\n", {"f"}),
    ],
)
def test_the_export_read_check_itself(source, reads):
    assert outside_reads(source) == reads


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"adversary.py", "cli.py", "attack_matrix.py", "test_imports.py", "support.py"} <= names


@pytest.mark.parametrize(
    "source,unread",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\nb\n", ["c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n    return json\n", []),
        ("_X = 1\n", ["_X"]),
        ("_X = 1\ndef f():\n    return _X\n", []),
        ("_A, (_B, c) = 1, (2, 3)\n_A\n", ["_B"]),
        ("_T: int = 1\n_U: int\n", ["_T", "_U"]),
        ("def _f():\n    pass\n", ["_f"]),
        ("async def _g():\n    pass\n_g()\n", []),
        ("class _C:\n    pass\nclass D(_C):\n    pass\n", []),
        ("class _C:\n    _inner = 1\n", ["_C"]),
        ("__version__ = '1'\n__x = 1\n", ["__x"]),
        ("import os as _os\n", ["_os"]),
        ("def f():\n    _local = 1\n", []),
        ("__all__ = ['f']\n", ["f"]),
        ("__all__ = ['f', 'g']\ndef f():\n    g = 1\n", ["g"]),
        ("__all__ = ['C', 'X', 'Y']\nclass C:\n    X = 1\nY: int = 2\n", ["X"]),
        ("__all__ = ['os', 'c']\nimport os.path\nfrom a import b as c\n", []),
        ("__all__ = ['b']\nfrom a import b as c\nc\n", ["b"]),
    ],
)
def test_the_check_itself(source, unread):
    assert unread_imports(source) + unread_private_names(source) + unbound_exports(source) == unread


def test_every_cache_has_a_ledger_row():
    ledger = set(ledger_names(README.read_text()))
    cached = [name for path in PACKAGE for name in cached_names(path.read_text(), path.stem)]
    assert cached
    assert sorted(set(cached) - ledger) == []


def test_every_ledger_name_exists():
    names = ledger_names(README.read_text())
    assert names
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        value = importlib.import_module(f"btauthsim.{module}")
        for attr in attrs:
            value = getattr(value, attr, missing)
        if value is missing:
            missing.append(name)
    assert missing == []


def test_the_ledger_check_itself():
    text = (
        "## Fast-path ledger\n\nprose `not.a.row`\n\n| fast path | lines |\n|---|---|\n"
        "| `crypto.e1` written out, `crypto.e1` memo, past `__new__` | 20 `crypto.x` |\n"
        "| `cli.ScenarioConfig.scenario_name` | 1 |\n\n## Layout\n\n| `simnet.run` | 0 |\n"
    )
    assert ledger_names(text) == ["crypto.e1", "crypto.e1", "cli.ScenarioConfig.scenario_name"]


def test_the_cache_check_itself():
    source = (
        "import functools\nfrom functools import cached_property, lru_cache\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x):\n    return x\n"
        "@lru_cache\ndef b(x):\n    return x\n"
        "c = functools.lru_cache(maxsize=4, typed=True)(int)\n"
        "class D:\n    @functools.cached_property\n    def e(self):\n        return 1\n"
        "    @property\n    def f(self):\n        return 2\n"
        "def g(x):\n    return functools.lru_cache(h)\n"
        "i = functools.partial(a, 1)\n"
    )
    assert cached_names(source, "m") == ["m.a", "m.b", "m.c", "m.D.e"]
