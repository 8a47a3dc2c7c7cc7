"""Exact tools for six-branch-point configurations on the sphere, the
pseudo-real curve families they carry, their fields of moduli, and Galois
descent verification."""

from .cyclotomic import (
    Box,
    CycElt,
    CycError,
    GaloisElement,
    LimitError,
    NonRealError,
    ParseError,
    SeedSearchExhausted,
    Subfield,
    approx,
    conjugate,
    fixed_field,
    fixing_subgroup,
    format_poly,
    galois_apply,
    kth_roots,
    make_element,
    min_poly,
    poly_eval,
    real_sign,
    same_field,
    units,
)
from .moebius import (
    INF,
    Moebius,
    SpherePoint,
    concircular,
    cross_ratio,
    g_orbit,
    moebius_from_triple,
    set_maps,
)
from .configurations import (
    Configuration,
    OmegaError,
    SymmetryReport,
    concircular_quadruples,
    equivalent,
    make_config,
    symmetries,
    u_orbit,
)
from .family import (
    FamilyParams,
    FamilyReport,
    ParameterError,
    analyze,
    genus,
    validate,
)
from .moduli import (
    ModuliResult,
    RowMatch,
    SigmaClassification,
    classify_sigma,
    field_of_moduli,
    stabilizer,
)
from .descent import (
    CocycleResult,
    LiftResult,
    MissingRoot,
    MonomialIso,
    WeilDatum,
    cocycle_check,
    compose_twist,
    extend_cyclic,
    lift_to_monomial,
    torsor_verdicts,
    transports_curve,
)

__version__ = "0.1.0"
