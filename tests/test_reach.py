"""Every top-level name a module of the package defines is read somewhere
else in the package.

A function, class or constant that no library path, trial kind or CLI
command reaches is either dead or kept for the tests alone; either way it
should be a decision, not drift.  A name counts as reached when a name or
attribute with its spelling is read in a package module other than
`__init__.py` (whose imports are re-exports), outside the name's own
definition.  The names below are kept on purpose, each for its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rainbowtrees"

KEPT = {
    "spanning.highly_connected_partition":
        "Theorem 3's partition lemma; acceptance 10 audits it",
    "spanning.suzuki_check":
        "the small-n Suzuki condition, the reference acceptance 2 and the "
        "spanning tests check the finder against",
    "expanders.degrade_attach":
        "the degrade-and-attach lemma, tested as a lemma by acceptance 4; "
        "perfbench counts its calls",
    "embedding.format_trace":
        "renders an embedding trace for people; only tests call it",
    "harness.read_records":
        "the reader of the trial CSVs the harness writes; the CLI tests "
        "read their output through it",
    "absorption.select_fresh_part":
        "the fresh-slice question on its own; absorb_step asks it together "
        "with the leak check",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _defined(tree):
    """(name, node) for each name a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _read(node, skip=None):
    """Names and attribute names read under `node`, outside `skip`."""
    out = set()
    stack = [node]
    while stack:
        here = stack.pop()
        if here is skip:
            continue
        if isinstance(here, ast.Name):
            out.add(here.id)
        elif isinstance(here, ast.Attribute):
            out.add(here.attr)
        stack.extend(ast.iter_child_nodes(here))
    return out


def _unreached():
    trees = _trees()
    out = set()
    for module, tree in trees.items():
        for name, node in _defined(tree):
            if name.startswith("__"):
                continue
            reached = name in _read(tree, skip=node) or any(
                name in _read(other) for m, other in trees.items()
                if m != module)
            if not reached:
                out.add("%s.%s" % (module, name))
    return out


def test_modules_are_found():
    trees = _trees()
    assert "graphs" in trees and "absorption" in trees and "cli" in trees
    names = {name for name, _ in _defined(trees["graphs"])}
    assert {"ColouredGraph", "SEED_KINDS", "complete_graph"} <= names


def test_every_top_level_name_is_reached():
    unreached = _unreached()
    drift = sorted(unreached - set(KEPT))
    assert not drift, "no package code reads: %s" % ", ".join(drift)
    # a kept name that gained a reader leaves the list
    stale = sorted(set(KEPT) - unreached)
    assert not stale, "kept names that are reached now: %s" % ", ".join(stale)


def test_the_slicing_counts_degrees_through_the_graph():
    tree = _trees()["absorption"]
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "partition_edge_set")
    assert "degrees_where" in _read(fn)


def _function(tree, *path):
    """The function definition at `path` (a top-level name, or a class
    and one of its methods) in a module's tree."""
    body = tree.body
    for name in path:
        node = next(node for node in body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        body = node.body
    return node


def test_pair_codes_are_decided_in_graphs_alone():
    """graphs.py checks, orders, encodes and decodes vertex pairs; no
    other module reads its private row and code helpers or looks codes
    up itself, and the pair questions of absorption, exposure and the
    image audit go through its kernel."""
    trees = _trees()
    private = {"_codes", "_pair_rows", "find_codes"}
    for module, tree in trees.items():
        if module != "graphs":
            assert not _read(tree) & private, module
    kernel = {"pair_codes", "find_pairs"}
    for module, *path in [("absorption", "SeedSlice", "pair_labels"),
                          ("exposure", "ExposureOracle", "colours_of"),
                          ("embedding", "_audit_image")]:
        assert _read(_function(trees[module], *path)) & kernel, path
