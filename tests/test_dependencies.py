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
