"""Every name a module of the package imports is used in that module, and
only corpus.py opens a file as text."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tarjama"
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
# Imported and never called: bench/tracing.py wraps these attributes.
UNUSED_ON_PURPOSE = {("pipeline.py", "atb_segment"), ("nmt/decoding.py", "decode_step")}


def unused_imports(source):
    """The names an import in source binds that nothing in source reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; a star import binds no name of its own.
                if alias.name != "*":
                    imported.add(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_finds_each_unread_name():
    source = "import os.path\nimport re as regex\nfrom a import b, c as d\nos.sep\nd()\n"
    assert unused_imports(source) == {"regex", "b"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_every_imported_name_is_used(path):
    module = path.relative_to(PACKAGE).as_posix()
    unused = {name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (module, name) not in UNUSED_ON_PURPOSE}
    assert unused == set()


def text_opens(source):
    """The line numbers of the open() calls in source whose mode is not a
    string holding "b"."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if not any(isinstance(mode, ast.Constant) and "b" in str(mode.value)
                       for mode in modes):
                lines.append(node.lineno)
    return lines


def test_text_opens_finds_each_text_mode():
    source = 'open(p)\nopen(p, "rb")\nopen(p, mode="w")\nopen(p, m)\nopen(p, mode="wb")\n'
    assert text_opens(source) == [1, 3, 4]


def test_only_corpus_opens_a_text_file():
    """corpus.py reads and writes every text file, so one module decides
    their encoding, line endings and stdin/stdout names."""
    found = ["%s:%d" % (path.relative_to(PACKAGE).as_posix(), line)
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "corpus.py"
             for line in text_opens(path.read_text(encoding="utf-8"))]
    assert found == []
