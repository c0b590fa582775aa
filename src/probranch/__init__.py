"""Exact-arithmetic toolkit for a recursion-free process calculus with
non-deterministic and probabilistic choice: parsing, operational
semantics with combined transitions, strong / branching /
rooted-branching probabilistic bisimilarity checking, and the equational
theories as a rewriting engine with replayable proof traces."""

from .axioms import (
    AxiomId,
    BudgetExceededError,
    FragmentError,
    PositionError,
    ProofTrace,
    RewriteStep,
    ShapeError,
    SideConditionError,
    SubstitutionError,
    apply_axiom,
    canonical_pterm,
    concretize,
    concretize_nd,
    derived_simple_bp,
    normalize_nd,
    normalize_p,
    prove_equal,
)
from .dist import (
    Decomposition,
    Distribution,
    MismatchError,
    WeightSumError,
    class_mass,
    convex_sum,
    decomposition,
    den,
    derivatives,
    dirac,
    distribution,
    joint_refinement,
    mix,
    pterm_of_distribution,
    weight,
)
from .equivalence import (
    ArgumentError,
    BranchingAnalysis,
    InertnessResult,
    Partition,
    Verdict,
    branching_equiv,
    branching_partition,
    check,
    inertness,
    is_concrete,
    is_rigid,
    partition_from_classes,
    rooted_branching_equiv,
    sqsubseteq,
    strong_equiv,
    strong_partition,
)
from .harness import (
    BoundExceeded,
    GenConfig,
    UnknownSuite,
    brute_force_branching,
    gen_nd,
    gen_p,
    run_property_suite,
    suite_names,
)
from .parse import ParseError, parse_nd, parse_p, parse_term, print_nd, print_p, print_term
from .rat import rat
from .semantics import StateTransition, nd_transitions, to_dot, weak_reachable
from .terms import (
    Action,
    Dirac,
    NdTerm,
    PChoice,
    Prefix,
    PTerm,
    Sum,
    TAU,
    Zero,
    ZERO_TERM,
    complexity,
    is_nd_fragment,
)

__version__ = "0.1.0"
