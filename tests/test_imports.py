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


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; ``from __future__`` is skipped.

    A name read only inside a string annotation (``Optional["Quantale"]``) counts
    as read.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    quoted = [ast.parse(node.value, mode="eval") for annotation in annotations
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    read = {node.id for root in [tree, *quoted] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_library_modules_use_every_name_they_import():
    unused = {path.name: unused_imports(path) for path in SOURCES}
    assert not {name: names for name, names in unused.items() if names}
