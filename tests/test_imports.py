"""Every import in the package's modules is used, unless its line carries
`# noqa: F401`.  No linter ships with the project, so this stands in for
pyflakes' F401 check; `__init__.py` re-exports by design and is skipped.
Every module-level function and class is referenced by package code or
re-exported from `__init__.py`, so no definition lives on for tests alone;
methods are the API of their classes and are not checked.  A CLI call
imports neither argparse nor the gettext and locale modules it pulls in."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gatekeeper"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "ProblemInstance"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: bad for name, bad in found.items() if bad} == {}


def orphan_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level defs and classes of the modules (name -> source) that no
    module names, by a name, an attribute or an import; `__init__.py`'s
    imports are the re-exports."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]


def test_package_has_no_orphan_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert orphan_definitions(sources) == []


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom typing import (\n    Any,\n    Optional,\n)\n"
              "def f(x: Optional[int]) -> 'Any':\n    return x\n")
    assert unused_imports(source) == ["line 1: os"]


def test_checker_flags_an_orphan_and_honours_reexports_and_uses():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("class Exported:\n    def method(self):\n        pass\n"
                 "def exported():\n    return helper()\n"
                 "def helper():\n    return b.attr_use\n"
                 "def orphan():\n    return helper()\n"),
        "b.py": "from .a import Exported\ndef attr_use():\n    pass\n",
    }
    assert orphan_definitions(sources) == ["a.py: orphan"]


def test_a_cli_call_imports_no_argparse_gettext_or_locale(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": {
        "profile": {"S": 2, "tau": [6, 15], "rho": [0.7, 1.0]},
        "econ": {"r": 20.0, "c_w": 2.0, "c_c": 5.0, "tau_w": 3},
        "traffic": {"q": 0.5, "a": 0.8}}}), encoding="utf-8")
    out = tmp_path / "out"
    script = ("import sys\nfrom gatekeeper import cli\n"
              f"code = cli.main(['wspt', '--config', {str(config)!r}, '--out', {str(out)!r}])\n"
              "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.stdout.splitlines()[-1] == "0 []"
