"""Module boundaries inside the package: no module of `affine_basis` imports
or reads an underscore name of another package module, except the reads
listed below, each with its reason."""

import ast
import os
import pathlib
import subprocess
import sys

import affine_basis

SRC = pathlib.Path(affine_basis.__file__).parent

# (reader, owner, name) -> why the reader reaches into the owner
ALLOWED = {
    ("cli", "intertwiner", "_TRUNC_CACHE"): "a command frees the truncated models it built",
    ("intertwiner", "verify", "_fmt"): "intertwiner witnesses format scalars as verify's do",
    ("intertwiner", "verify", "_proportionality"): "the projection chain reads mu as translation does",
    ("intertwiner", "verify", "_sweep"): "the projection-chain sweep aggregates as every sweep does",
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(module, level):
    """The package module an import names, or None outside the package."""
    if level == 1:
        return module
    if module and module.startswith("affine_basis."):
        return module[len("affine_basis.") :]
    return None


def private_reads(path):
    """(owner, name) of every underscore name that the module at `path`
    imports from another package module or reads off one it imported."""
    tree = ast.parse(path.read_text())
    aliases = {}  # local name -> package module
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _package_module(node.module, node.level)
            for alias in node.names:
                if node.level == 1 and node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module == "affine_basis" and node.level == 0:
                    aliases[alias.asname or alias.name] = alias.name
                elif owner is not None and _private(alias.name):
                    reads.add((owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                owner = _package_module(alias.name, 0)
                if owner is not None and alias.asname:
                    aliases[alias.asname] = owner
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            reads.add((aliases[node.value.id], node.attr))
    return {(owner, name) for owner, name in reads if owner != path.stem}


def test_no_module_reads_another_modules_private_names():
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for owner, name in sorted(private_reads(path)):
            entry = (path.stem, owner, name)
            assert entry in ALLOWED, "%s reads %s.%s" % entry
            seen.add(entry)
    # every allowance is still in use, so a fold that removes a read
    # removes its entry too
    assert seen == set(ALLOWED)


def test_the_boundary_scan_sees_each_form_of_read(tmp_path):
    path = tmp_path / "reader.py"
    path.write_text(
        "from . import partitions as parts_mod\n"
        "from .verify import _fmt, StepReport\n"
        "from affine_basis import pbw\n"
        "import affine_basis.linalg as la\n"
        "word = parts_mod._literal_word\n"
        "q = la._Q\n"
        "g = pbw.GEN_A1\n"
        "d = parts_mod.__doc__\n"
    )
    assert private_reads(path) == {
        ("partitions", "_literal_word"),
        ("verify", "_fmt"),
        ("linalg", "_Q"),
    }


def test_a_fresh_import_leaves_out_dataclasses_and_inspect():
    # start-up cost: every CLI call and benchmark sample imports the package
    # in a fresh interpreter, and `dataclasses` would pull in inspect, ast,
    # dis and tokenize there, for records that plain classes hold as well
    code = "import sys, affine_basis, affine_basis.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code, "dataclasses", "inspect"], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
