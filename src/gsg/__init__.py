"""Finite gamma-semigroups: tables, homomorphisms, congruences, free
products, and bounded amalgam embedding checks."""

from types import ModuleType as _ModuleType

from .amalgams import (
    DEFAULT_BOUND,
    DEFAULT_BUDGET,
    Collision,
    CrossPair,
    EmbeddingReport,
    EqualityVerdict,
    GammaAmalgam,
    MediatorReport,
    NecessaryConditionVerdict,
    RelationSet,
    Step,
    check_natural_embedding,
    mu,
    necessary_condition,
    pushout_mediator,
    relation_generators,
    replay_chain,
    validate_amalgam,
    words_equal_within,
)
from .congruences import (
    Congruence,
    IsoReport,
    QuotientResult,
    compatibility_violation,
    first_isomorphism_check,
    generate_congruence,
    kernel_congruence,
    quotient,
)
from .core import (
    AssocWitness,
    ElementRegularity,
    GammaHomomorphism,
    GammaSemigroup,
    HomWitness,
    RegularityReport,
    alpha_inverses,
    alpha_regular_witness,
    check_associativity,
    classify,
    completely_regular_witness,
    compose,
    identity_homomorphism,
    injective,
    is_monomorphism,
    is_subsemigroup,
    left_identities,
    preserves_left_identity,
    validate_table,
    verify_homomorphism,
)
from .errors import (
    CommutingSquareFails,
    CrossFamilyGamma,
    DuplicateEntry,
    GammaMismatch,
    GsgError,
    IncompleteMap,
    InvalidIdentifier,
    MalformedSequence,
    MissingEntry,
    MissingHomomorphism,
    ModeMismatch,
    NameClash,
    NonPositiveLimit,
    NotAHomomorphism,
    NotAssociative,
    NotCompatible,
    NotMonomorphism,
    ParseError,
    UnknownIdentifier,
    UnresolvedReference,
)
from .families import constant, left_zero, relabel, right_zero, zmod
from .textio import Workspace, parse, serialize
from .words import FreeProduct, Mode, Word

__version__ = "0.1.0"

# every public name imported above, but not the submodules those imports bind
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
