"""The reachability probe's allowlist stays honest (static, no drive).

``tools/reachability.py`` lists the functions no shipped path enters but
that stay anyway, each with the reason.  Every entry must still name a
function under ``src/repro`` — deleting an allowlisted function deletes
its entry — and carry a reason.
"""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _probe():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlisted_function_exists_and_has_a_reason():
    probe = _probe()
    defined = {name for name, _ in probe.enumerate_functions(ROOT / "src").values()}
    assert probe.ALLOWLIST
    for name, reason in probe.ALLOWLIST.items():
        assert name in defined, f"{name} is allowlisted but not defined under src/repro"
        assert reason.strip(), f"{name} is allowlisted without a reason"


def test_enumerator_keys_are_what_the_tracer_records(tmp_path):
    """A function's key is its code object's ``co_firstlineno``: the
    first decorator's line, for methods and nested functions alike."""
    package = tmp_path / "repro"
    package.mkdir()
    source = (
        "import functools\n"
        "class A:\n"
        "    @property\n"
        "    @functools.lru_cache\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return 1\n"
        "        return g\n"
        "async def h():\n"
        "    pass\n"
    )
    (package / "mod.py").write_text(source)
    found = _probe().enumerate_functions(tmp_path)
    lines = {first: name for (_, first), (name, _) in found.items()}
    codes, stack = [], [compile(source, "mod.py", "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_name != "A":  # the class body is no def
                    codes.append(const)
    assert {code.co_firstlineno: code.co_name for code in codes} == {
        first: name.rsplit(".", 1)[-1] for first, name in lines.items()
    }
    assert set(lines.values()) == {
        "repro.mod.A.f", "repro.mod.A.f.<locals>.g", "repro.mod.h"
    }
