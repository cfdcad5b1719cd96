"""cubal: finite double categories and double groupoids with connections.

Axiom validation, thin structures, commutative cubes, a pasting-diagram DSL,
derivation replay, and budgeted colimits (coproducts, coequalisers, pushouts)
with a finite van Kampen harness.
"""

from .core import DoubleGC, EdgeEnds, SquareFaces, validate
from .models import (
    FiniteCategory,
    cyclic_group,
    disjoint_union,
    full_sub_double,
    group_as_groupoid,
    indiscrete_groupoid,
    product,
    shift_model,
    square_model,
    trivial_category,
)
from .morphisms import DoubleMorphism, identity_morphism, validate_morphism
from .shells import (
    Cube3,
    compose_cubes,
    degenerate_cube,
    hcl_agreement,
    hcl_prime_holds,
    is_commutative,
    shell_commutes,
    theorem25_harness,
    triple_interchange_check,
)
from .thin import (
    ThinSet,
    check_thin_axioms,
    is_thin,
    rigidity_check,
    thin_filler,
    thin_set,
    thinly_equivalent,
)
from .pastings import Env, evaluate, parse, replay, replay_pinned, solve, typecheck
from .colimits import (
    QuotientResult,
    check_universal,
    coequalise,
    coproduct,
    factor_through,
    iso_check,
    pushout,
    vk_harness,
)
from .reports import Report

__version__ = "0.1.0"
