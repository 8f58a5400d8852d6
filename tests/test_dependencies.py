import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abms"


def test_runtime_imports_only_the_standard_library():
    """The runtime is stdlib-only: numpy and the test tools are installed
    where the tests run, so an accidental import of one would go unnoticed."""
    allowed = sys.stdlib_module_names | {"abms"}
    foreign = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(SRC)}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({(alias.asname or alias.name.split(".")[0]): node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({(alias.asname or alias.name): node.lineno for alias in node.names if alias.name != "*"})
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree: ast.Module) -> list[ast.expr]:
    """Every annotation of an argument, a return or an annotated assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
    return [annotation for annotation in found if annotation is not None]


def test_no_module_imports_a_name_it_never_uses():
    """Deleting code tends to leave its imports behind.  A name counts as
    used where it is read, also inside a quoted annotation, or exported
    through ``__all__``."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported_names(tree)
        for annotation in _annotations(tree):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):  # a quoted annotation
                    used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
        imported = _imported_names(tree)
        unused += [f"{path.relative_to(SRC)}:{imported[name]}: {name}" for name in imported if name not in used]
    assert unused == []
