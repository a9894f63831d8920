"""Every import in the package modules is used, the package root binds only its version,
every function, class and method is named somewhere outside its own definition, and every
attribute the benchmark wraps exists where it looks for it."""

import ast
import importlib
import re
from pathlib import Path

import snfuse

PACKAGE = Path(snfuse.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_the_package_root_binds_only_its_version():
    # callers import from the modules, so a name the root binds would be a second path to it; the root's
    # source runs in a fresh namespace, because the package object also holds every submodule imported
    path = PACKAGE / "__init__.py"
    namespace = {"__name__": "snfuse", "__package__": "snfuse"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    assert "__version__" in namespace
    assert [name for name in namespace if not (name.startswith("__") and name.endswith("__"))] == []


def _definitions(tree: ast.Module):
    """(name, first line, last line) of every module-level function and class, and of every method
    of a module-level class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def test_every_function_class_and_method_is_named_outside_its_definition():
    # perfbench wraps some functions by naming them in strings; a whole-word mention anywhere counts
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for root in (PACKAGE, REPO / "tests", REPO / "perfbench") for path in sorted(root.glob("*.py"))}
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(ast.parse("\n".join(sources[path]))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = (line for other, lines in sources.items() for i, line in enumerate(lines, start=1)
                         if not (other == path and first <= i <= last))
            if not any(word.search(line) for line in elsewhere):
                unnamed.append(f"{path.name}:{first} {name}")
    assert unnamed == []


def test_every_attribute_the_benchmark_wraps_is_defined_on_its_owner():
    # perfbench/spans.py replaces each (owner, attribute) of WRAPPED by reading owner.__dict__[attribute],
    # so a deleted or moved one makes every traced benchmark run raise KeyError
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (wrapped,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    assert wrapped
    missing = []
    for owner_path, attr, _ in wrapped:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        owner = vars(owner).get(cls) if cls else owner
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
