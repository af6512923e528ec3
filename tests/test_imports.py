import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hornmod").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of every absolute import in a file, local imports included."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.partition(".")[0])
    return out


def test_runtime_imports_only_the_standard_library():
    # Runtime code stays stdlib-only; tests and the benchmark may import more.
    assert SOURCES
    outside = {path.name: [m for m in absolute_imports(path) if m not in sys.stdlib_module_names]
               for path in SOURCES}
    assert not {name: mods for name, mods in outside.items() if mods}
