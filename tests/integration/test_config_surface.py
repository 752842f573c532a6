"""The configuration surface: every REPRO_* variable is documented.

The set of ``REPRO_*`` names that ``src/repro`` reads through
``os.environ`` must equal the names in README §Configuration, so a
new variable cannot land undocumented and a deleted one cannot
linger in the docs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"REPRO_[A-Z_]+")


def _is_environ(node) -> bool:
    """``os.environ`` or a local called ``environ``."""
    return (
        isinstance(node, ast.Attribute) and node.attr == "environ"
    ) or (isinstance(node, ast.Name) and node.id == "environ")


def environ_reads(source: str):
    """``REPRO_*`` keys read as ``environ[key]`` or
    ``environ.get(key)``; a key may be a module-level constant."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _is_environ(node.func.value)
            and node.args
        ):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Name):
            value = constants.get(key.id)
        elif isinstance(key, ast.Constant):
            value = key.value
        else:
            continue
        if isinstance(value, str) and NAME.fullmatch(value):
            yield value


def read_names():
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(environ_reads(path.read_text()))
    return names


def documented_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))


class TestConfigSurface:
    def test_every_read_variable_is_documented(self):
        assert read_names() == documented_names()

    def test_scanner_sees_constants_and_locals(self):
        source = (
            "import os\n"
            "KEY = 'REPRO_A'\n"
            "os.environ[KEY]\n"
            "os.environ.get('REPRO_B')\n"
            "def f(environ):\n"
            "    return environ.get('REPRO_C', '0')\n"
            "env = {}\n"
            "env['REPRO_D'] = '1'\n"
        )
        assert set(environ_reads(source)) == {
            "REPRO_A", "REPRO_B", "REPRO_C"
        }
