"""The package surface and what each entry point loads.

`import ubisim` loads no submodule: each public name loads its home module
on first access.  The CLI imports the parsing layer and loads the rest in
the handler that runs it.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ubisim
import ubisim.cli
from helpers import fixture_path

# every public name, by its home module
PUBLIC = {
    "ApartnessWitness": "bisim",
    "apartness_witness": "bisim",
    "bisimilarity": "bisim",
    "ioco_compatibility": "bisim",
    "relation_is_ioco_compatibility": "bisim",
    "uncertain_bisimilarity": "bisim",
    "ContractError": "errors",
    "ObservationConflictError": "errors",
    "ParseError": "errors",
    "UbisimError": "errors",
    "ValidationError": "errors",
    "ObservationTree": "learning",
    "Teacher": "learning",
    "TreeConflict": "learning",
    "find_lax_morphism_from_tree": "learning",
    "query_and_record": "learning",
    "tree_apartness_frontier": "learning",
    "in_lifting": "lifting",
    "in_uncertain_lifting": "lifting",
    "relation_is_uncertain_bisimulation": "lifting",
    "MealySuccessors": "machines",
    "PartialMealyMachine": "machines",
    "PowSuccessors": "machines",
    "PowersetSystem": "machines",
    "SaSuccessors": "machines",
    "SuspensionAutomaton": "machines",
    "disjoint_union": "machines",
    "eval_semantics": "machines",
    "map_structure": "machines",
    "order_leq": "machines",
    "run": "machines",
    "Conflict": "morphisms",
    "MorphismReport": "morphisms",
    "Quotient": "morphisms",
    "StateMap": "morphisms",
    "Violation": "morphisms",
    "check_morphism": "morphisms",
    "kernel": "morphisms",
    "lax_identify": "morphisms",
    "restrict_along": "morphisms",
    "Relation": "relations",
    "inverse_image": "relations",
    "kernel_relation": "relations",
    "JointSimulator": "simulation",
    "SimulationWitness": "simulation",
    "SpanFailure": "simulation",
    "check_simulation": "simulation",
    "hj_to_openmap": "simulation",
    "joint_simulator": "simulation",
    "simulation_violation": "simulation",
    "synthesize_span_structure": "simulation",
    "witness_violations": "simulation",
    "Document": "textfmt",
    "MapDecl": "textfmt",
    "RelDecl": "textfmt",
    "parse": "textfmt",
    "parse_file": "textfmt",
    "render": "textfmt",
}


def test_all_is_the_public_surface():
    assert len(PUBLIC) == 58
    assert ubisim.__all__ == sorted(PUBLIC)


def test_each_name_is_its_home_modules_attribute():
    for name, home in PUBLIC.items():
        value = getattr(ubisim, name)
        module = sys.modules[f"ubisim.{home}"]
        assert value is getattr(module, name), name
        # resolved once, then kept as a plain attribute of the package
        assert vars(ubisim)[name] is value, name
        assert getattr(ubisim, home) is module


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(ubisim))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ubisim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(ubisim, name), name
    assert not {"bisim", "textfmt"} & set(namespace)


def test_the_package_imports_no_test_code():
    # the references and helpers stay with the tests: no module of the
    # package names a test module in an import
    test_code = {"tests", "helpers", "references", "conftest"}
    imported = set()
    for path in Path(ubisim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
    assert {"errors", "machines", "relations"} <= imported  # the walk saw the imports
    assert not test_code & imported


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ubisim.no_such_name
    assert not hasattr(ubisim, "no_such_name")
    assert not hasattr(ubisim.cli, "no_such_name")
    assert not hasattr(ubisim.cli, "bisim")


SRC = str(Path(ubisim.__file__).resolve().parents[1])

# run in a fresh interpreter; prints the ubisim modules that the body
# loaded, after whatever the interpreter loaded at start-up, and any of the
# standard modules that no entry point needs: `logging`, and `dataclasses`
# and `inspect`, which would cost each CLI process about 15 ms
LOAD_SET = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
{body}
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.split(".")[0] in ("ubisim", "logging", "dataclasses", "inspect"))))
"""


def loaded_by(body):
    script = LOAD_SET.format(src=SRC, body=body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_run(argv):
    return (f"import ubisim.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert ubisim.cli.main({argv!r}) in (0, 1)")


PARSING = {"ubisim", "ubisim.cli", "ubisim.errors", "ubisim.machines", "ubisim.relations",
           "ubisim.textfmt"}


def test_import_loads_no_submodule():
    assert loaded_by("import ubisim") == {"ubisim"}


def test_check_loads_only_the_parser_and_bisim():
    # conflict_tree.txt has no map section, so parsing it needs no StateMap
    path = fixture_path("conflict_tree.txt")
    loaded = loaded_by(cli_run(["check", "uncertain", path, "m:p", "m:q"]))
    assert loaded == PARSING | {"ubisim.bisim"}
    assert not {"ubisim.learning", "ubisim.simulation", "ubisim.lifting", "ubisim.morphisms",
                "logging", "dataclasses", "inspect"} & loaded


def test_simulate_loads_only_the_parser_and_simulation():
    argv = ["simulate", fixture_path("quadruple.txt"), "sim_q_p"]
    loaded = loaded_by(cli_run(argv))
    assert loaded == PARSING | {"ubisim.simulation"}
    assert "ubisim.bisim" not in loaded


def test_learn_demo_without_maps_loads_only_the_parser_and_learning():
    # conflict_tree.txt has no map section, so parsing it needs no StateMap
    argv = ["learn-demo", "--hidden", f"{fixture_path('conflict_tree.txt')}:m",
            "--queries", "w i, v w, v v w i"]
    loaded = loaded_by(cli_run(argv))
    assert loaded == PARSING | {"ubisim.learning"}
    assert "ubisim.morphisms" not in loaded


def test_lifting_loads_no_engine():
    # the references in tests/ build on lifting, so they share no code with
    # the decision procedures they check
    loaded = loaded_by("import ubisim.lifting")
    assert loaded == {"ubisim", "ubisim.lifting", "ubisim.errors", "ubisim.machines",
                      "ubisim.relations"}
    assert "ubisim.bisim" not in loaded


def test_learn_demo_loads_no_decision_procedure():
    argv = ["learn-demo", "--hidden", f"{fixture_path('lax_chain.txt')}:B", "--queries", "j j i, i"]
    loaded = loaded_by(cli_run(argv))
    assert loaded == PARSING | {"ubisim.learning", "ubisim.morphisms"}
    assert not {"ubisim.simulation", "ubisim.lifting", "ubisim.bisim"} & loaded


def test_readme_quick_tour_prints_what_its_comments_show():
    # the `python` block under "Library quick tour" runs and prints the lines
    # that its whole-line "# " comments show, in order
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library quick tour\n", 1)[1].split("\n```python\n", 1)[1].split("\n```", 1)[0]
    shown = [line[2:] for line in tour.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(tour, {})
    assert shown and out.getvalue().splitlines() == shown
