"""The public surface of ``hexloop`` holds only what something uses.

Every public top-level name of ``src/hexloop/*.py`` must be read by another
source module, by its own module outside its definition, or by the
benchmark under ``bench/``.  The few names that only tests read are test
oracles or writers of files the command line reads, and are listed in
``TEST_ONLY`` with the reason each one stays.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hexloop").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

TEST_ONLY = {
    "walk_path_sum": "oracle: the walk-by-walk defect-pair sum that "
                     "path_sum's defect tables are compared against",
    "vertex_relation_residual": "oracle: the three-term relation of "
                                "parafermion_field at an interior vertex",
    "loops_to_json": "writes the loops files that `hexloop render` reads",
    "spins_to_json": "writes the spins files that `hexloop render` reads",
}


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
