"""Compatibility relations on partially observed state machines.

The library decides whether two states of a partially known machine can
still turn out to be behaviourally equal (uncertain bisimilarity), finds
finite words proving they cannot (apartness), checks the analogous
compatibility relation on suspension automata, validates strict/lax/oplax
state maps, synthesizes joint simulators, and maintains the observation
trees of active automata learning.
"""

from .bisim import (
    ApartnessWitness,
    apartness_witness,
    bisimilarity,
    ioco_compatibility,
    relation_is_ioco_compatibility,
    relation_is_uncertain_bisimulation,
    semantic_oracle_uncertain,
    uncertain_bisimilarity,
)
from .errors import (
    ContractError,
    EnumerationLimitError,
    ObservationConflictError,
    ParseError,
    UbisimError,
    ValidationError,
)
from .learning import (
    ObservationTree,
    Teacher,
    TreeConflict,
    find_lax_morphism_from_tree,
    query_and_record,
    tree_apartness_frontier,
)
from .lifting import (
    in_lifting,
    in_uncertain_lifting,
    in_uncertain_lifting_enumerated,
    stability_check,
)
from .machines import (
    MealySuccessors,
    PartialMealyMachine,
    PowSuccessors,
    PowersetSystem,
    SaSuccessors,
    SuspensionAutomaton,
    disjoint_union,
    eval_semantics,
    map_structure,
    order_leq,
    run,
)
from .morphisms import (
    Conflict,
    MorphismReport,
    Quotient,
    StateMap,
    Violation,
    check_morphism,
    kernel,
    lax_identify,
    restrict_along,
)
from .relations import Relation, inverse_image, kernel_relation
from .simulation import (
    JointSimulator,
    SimulationWitness,
    SpanFailure,
    check_simulation,
    hj_to_openmap,
    joint_simulator,
    simulation_violation,
    synthesize_span_structure,
    witness_violations,
)
from .textfmt import Document, MapDecl, RelDecl, parse, parse_file, render

__all__ = [name for name in dir() if not name.startswith("_")]
