import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkig

SRC = Path(__file__).resolve().parent.parent / "src"

# the names the package exported when it imported every submodule eagerly,
# less the wrappers no caller outside the tests used
EXPORTS = {
    "pairs": [
        "InvalidPairError", "basis_list", "bruhat_leq", "dim_schubert",
        "dim_space", "divisor_pair", "dual_pair", "fano_index",
        "is_valid_pair", "richardson_dim", "richardson_nonempty",
        "seidel_pair", "unit_pair"],
    "ring": [
        "NormalizedTerm", "RingElement", "UnsupportedFamilyError",
        "apply_word", "chevalley_q_part_geometric", "classical_chevalley",
        "normalize_extended", "product_C1", "product_C2",
        "quantum_chevalley", "richardson_special_expand", "seidel",
        "sign_check", "special_product"],
    "neighborhoods": [
        "Classification", "Descriptor", "classify", "condition_C1",
        "condition_C2", "condition_L1", "deg2_birational_case", "dim_moduli",
        "gamma_broken", "gamma_pair", "gamma_point_pair", "q_support_product",
        "seidel_neighborhood"],
    "chi": [
        "chi_chevalley", "chi_xuv", "ideal_to_schubert",
        "reconstruct_classical_chevalley", "reconstruct_xuv"],
    "oracle": [
        "GeometryError", "Plane2", "SamplingError", "bruhat_oracle",
        "chain2_through", "dim_intersect", "dim_sum", "line_witness",
        "membership_suite", "random_isotropic_plane", "random_point_in_cell",
        "richardson_witness"],
}


def _loaded_after(statement):
    """Modules a fresh interpreter (no site hooks) loads to run statement."""
    code = ("import sys; before = set(sys.modules); " + statement + "; "
            "import json; print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True)
    return set(json.loads(out.stdout))


def test_ring_and_oracle_load_only_what_they_use():
    ring = _loaded_after("import qkig.ring")
    assert "qkig.ring" in ring
    assert not ring & {"qkig.oracle", "qkig.neighborhoods", "qkig.linalg",
                       "random", "dataclasses"}
    chi = _loaded_after("import qkig.chi")
    assert "qkig.chi" in chi
    assert not chi & {"qkig.neighborhoods", "qkig.linalg"}
    oracle = _loaded_after("import qkig.oracle")
    assert "qkig.oracle" in oracle and "qkig.ring" not in oracle
    assert not _loaded_after("import qkig") & {
        f"qkig.{m}" for m in EXPORTS}


def test_only_verify_loads_the_oracle():
    cli = _loaded_after("import qkig.cli")
    assert "qkig.verify" in cli
    assert not cli & {"qkig.oracle", "qkig.linalg", "qkig.chi"}
    assert "qkig.oracle" not in _loaded_after("import qkig.verify")


def test_exports_resolve_to_their_submodules():
    names = [name for module in EXPORTS.values() for name in module]
    assert sorted(qkig.__all__) == sorted(names)
    listed = dir(qkig)
    for module, exported in EXPORTS.items():
        home = importlib.import_module(f"qkig.{module}")
        for name in exported:
            assert getattr(qkig, name) is getattr(home, name)
            assert name in listed
    assert qkig.__version__ == "0.1.0"
    for module in ("oracle", "verify"):
        assert getattr(qkig, module) is importlib.import_module(
            f"qkig.{module}")


def test_unknown_names_and_star_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        qkig.no_such_name
    namespace = {}
    exec("from qkig import *", namespace)
    assert set(qkig.__all__) <= set(namespace)
    assert namespace["basis_list"] is qkig.pairs.basis_list
    from qkig import verify
    assert verify.run_suite


def _src_references():
    """Every name that code in src/qkig reads, outside __init__.py and
    outside the top-level definition that binds the name."""
    seen = set()
    for path in (SRC / "qkig").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                ref = (node.id if isinstance(node, ast.Name) else
                       node.attr if isinstance(node, ast.Attribute) else None)
                if ref is not None and ref != own:
                    seen.add(ref)
    return seen


def test_every_export_has_a_caller_or_is_documented():
    # an exported name stays only while README names it in backticks, the
    # library calls it, or the benchmark reads it
    root = SRC.parent
    spans = re.findall(r"`([^`\n]+)`", (root / "README.md").read_text())
    bench = "\n".join(p.read_text() for p in (root / "perfbench").glob("*.py"))
    used = _src_references()
    dead = [name for name in qkig.__all__
            if name not in used
            and not any(re.search(rf"\b{name}\b", s) for s in spans)
            and not re.search(rf"\b{name}\b", bench)]
    assert dead == []
