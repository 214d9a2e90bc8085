"""The public surface of ``hexloop`` holds only what something uses.

Every public top-level name of ``src/hexloop/*.py`` must be read by another
source module, by its own module outside its definition, or by the
benchmark under ``bench/``.  The few names that only tests read are test
oracles or code due for deletion, and are listed in ``TEST_ONLY`` with the
reason each one stays.  Every name that a source or test module imports
must be read in that module, or listed in its ``__all__``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hexloop").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

TEST_ONLY: dict[str, str] = {}


def _definitions(tree):
    """Public top-level names with the node that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _references(tree, strings=False):
    """(name, line) of every name read, attribute read and, with
    ``strings``, string constant (the benchmark patches by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value, node.lineno


def unused_public_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    bench = {name for p in BENCH
             for name, _ in _references(ast.parse(p.read_text()), True)}
    unused = []
    for module, tree in trees.items():
        elsewhere = {name for other, t in trees.items() if other != module
                     for name, _ in _references(t)}
        own = list(_references(tree))
        for name, node in _definitions(tree):
            body = range(node.lineno, node.end_lineno + 1)
            if (name in elsewhere or name in bench
                    or any(n == name and line not in body
                           for n, line in own)):
                continue
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_user():
    unused = [name for name in unused_public_names()
              if name.split(".")[1] not in TEST_ONLY]
    assert unused == [], (
        f"public names that no command, check or benchmark reads: {unused}; "
        "delete them, make them private, or add a test oracle to TEST_ONLY")


def test_test_only_names_exist_and_need_the_list():
    # a name that gained a user, or is gone, leaves the list
    unused = {name.split(".")[1] for name in unused_public_names()}
    assert unused == set(TEST_ONLY)


def unused_imports(tree):
    """Names bound by an import of the module that no line reads and that
    ``__all__`` does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_every_import_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in SOURCES + TESTS
              for line, name in unused_imports(ast.parse(path.read_text()))]
    assert unused == [], f"imported names that no line reads: {unused}"

