"""The block layout lives in one module: no module of the library other than
algebra.py reads a private attribute of BlockDecomposition or BlockGroup, so
the layout is held one way and changes in one place."""
import ast
import pathlib

import starrep

SRC = pathlib.Path(starrep.__file__).parent
LAYOUT = ("BlockDecomposition", "BlockGroup")


def private_names(tree):
    """The _-prefixed names, dunders aside, that the bodies of the layout
    classes define: methods and properties, class attributes, and
    attributes set on self."""
    names = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name in LAYOUT):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and (
                    isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
        for node in cls.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def private_reads(tree, names):
    """(line, name) of each read of an attribute with one of the names."""
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_no_module_reads_the_block_layout_privately():
    names = private_names(ast.parse((SRC / "algebra.py").read_text()))
    assert "_copies" in names, names
    found = {path.name: private_reads(ast.parse(path.read_text()), names)
             for path in sorted(SRC.glob("*.py")) if path.name != "algebra.py"}
    assert {module: reads for module, reads in found.items() if reads} == {}


def test_layout_guard_sees_methods_attributes_and_reads():
    tree = ast.parse("class BlockGroup:\n    _shape = 1\n    def __init__(self):\n"
                     "        self._rows = None\n"
                     "class BlockDecomposition:\n    @property\n    def _padded(self):\n"
                     "        return self._rows\n"
                     "class Other:\n    def _elsewhere(self):\n        self._kept = 0\n")
    names = private_names(tree)
    assert names == {"_shape", "_rows", "_padded"}
    reads = private_reads(ast.parse("q = dec._padded[0]\nx = s._lock\ndec._rows.shape"), names)
    assert reads == [(1, "_padded"), (3, "_rows")]
