"""Every top-level name a module of the package defines, and every
method of its classes, is read somewhere else in the package.

A function, class, constant or method that no library path, trial kind or
CLI command reaches is either dead or kept for the tests alone; either
way it should be a decision, not drift.  A name counts as reached when a
name or attribute with its spelling is read in a package module other
than `__init__.py` (whose imports are re-exports), outside the name's own
definition; a method is named module.Class.method, and dunder methods,
which Python calls, are left out.  The names below are kept on purpose,
each for its reason.
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

KEPT_METHODS = {
    "exposure.ExposureOracle.presence_of":
        "one pair's revealed presence; perfbench's output check reads it",
    "exposure.ExposureOracle.colour_of":
        "one pair's revealed colour; perfbench's output check reads it",
    "exposure.ExposureOracle.presence_exposed":
        "the exposure question the tests' audits ask of a step",
    "exposure.ExposureOracle.colour_exposed":
        "the exposure question the tests' audits ask of a step",
    "graphs.ColouredGraph.has_edge":
        "the one-pair edge question of the graph API; the tests and their "
        "reference checks ask it",
    "graphs.ColouredGraph.colour_of":
        "one edge's colour in the graph API; the tests read it",
    "graphs.ColouredGraph.is_rainbow":
        "the rainbow property itself; the tests check it against a naive "
        "count",
    "rng._PhiloxKey.generate_state":
        "the seed protocol numpy's Philox calls to read the key",
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


def _methods(tree):
    """("Class.method", node) for each method of each class a module
    defines at its top level."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    yield "%s.%s" % (cls.name, node.name), node


def _unreached(defined):
    """module.label for each (label, node) that `defined` yields whose
    name, the label's last part, no package code reads outside `node`."""
    trees = _trees()
    out = set()
    for module, tree in trees.items():
        for label, node in defined(tree):
            name = label.rpartition(".")[2]
            if name.startswith("__"):
                continue
            reached = name in _read(tree, skip=node) or any(
                name in _read(other) for m, other in trees.items()
                if m != module)
            if not reached:
                out.add("%s.%s" % (module, label))
    return out


def test_modules_are_found():
    trees = _trees()
    assert "graphs" in trees and "absorption" in trees and "cli" in trees
    names = {name for name, _ in _defined(trees["graphs"])}
    assert {"ColouredGraph", "SEED_KINDS", "complete_graph"} <= names


def test_methods_are_found():
    trees = _trees()
    methods = {label for label, _ in _methods(trees["exposure"])}
    assert {"ExposureOracle.record_block", "ExposureOracle._norm"} <= methods
    assert not any(label.startswith("ExposureError.") for label in methods)


def _check_reached(unreached, kept):
    drift = sorted(unreached - set(kept))
    assert not drift, "no package code reads: %s" % ", ".join(drift)
    # a kept name that gained a reader leaves the list
    stale = sorted(set(kept) - unreached)
    assert not stale, "kept names that are reached now: %s" % ", ".join(stale)


def test_every_top_level_name_is_reached():
    _check_reached(_unreached(_defined), KEPT)


def test_every_method_is_reached():
    _check_reached(_unreached(_methods), KEPT_METHODS)


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
