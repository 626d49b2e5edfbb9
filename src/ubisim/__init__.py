"""Compatibility relations on partially observed state machines.

The library decides whether two states of a partially known machine can
still turn out to be behaviourally equal (uncertain bisimilarity), finds
finite words proving they cannot (apartness), checks the analogous
compatibility relation on suspension automata, validates strict/lax/oplax
state maps, synthesizes joint simulators, and maintains the observation
trees of active automata learning.

`import ubisim` loads no submodule.  Each public name below loads its
home module on first access (PEP 562) and is then kept in the package's
globals, so later reads are plain attribute reads; `from ubisim import *`
loads them all.  The submodules themselves (`ubisim.bisim`, ...) resolve
the same way.
"""

import sys

# each public name, by its home module
_EXPORTS = {
    "bisim": ("ApartnessWitness", "apartness_witness", "bisimilarity", "ioco_compatibility",
              "relation_is_ioco_compatibility", "uncertain_bisimilarity"),
    "errors": ("ContractError", "ObservationConflictError", "ParseError", "UbisimError",
               "ValidationError"),
    "learning": ("ObservationTree", "Teacher", "TreeConflict", "find_lax_morphism_from_tree",
                 "query_and_record", "tree_apartness_frontier"),
    "lifting": ("in_lifting", "in_uncertain_lifting", "relation_is_uncertain_bisimulation"),
    "machines": ("MealySuccessors", "PartialMealyMachine", "PowSuccessors", "PowersetSystem",
                 "SaSuccessors", "SuspensionAutomaton", "disjoint_union", "eval_semantics",
                 "map_structure", "order_leq", "run"),
    "morphisms": ("Conflict", "MorphismReport", "Quotient", "StateMap", "Violation",
                  "check_morphism", "kernel", "lax_identify", "restrict_along"),
    "relations": ("Relation", "inverse_image", "kernel_relation"),
    "simulation": ("JointSimulator", "SimulationWitness", "SpanFailure", "check_simulation",
                   "hj_to_openmap", "joint_simulator", "simulation_violation",
                   "synthesize_span_structure", "witness_violations"),
    "textfmt": ("Document", "MapDecl", "RelDecl", "parse", "parse_file", "render"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _load(module):
    # the import statement's own path, which `python -X importtime` reports
    # (it leaves out what `importlib.import_module` loads)
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_HOME[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
