"""Exact symbolic computation with connected Hopf algebras of low
GK-dimension: PBW presentations with certified normal forms, coalgebra
structure and antipodes, coassociative Lie algebras, primitive and
anti-cocommutative subspaces, lanterns, and bounded-degree cobar
cohomology, all over exact rational arithmetic."""

from .cla import (CLA, GradedLie, cla_transform, conilpotency_index,
                  enveloping, kernel_delta, lantern_of_cla, verify_cla)
from .cobar import (CobarComplex, CobarReport, CoboundaryResult,
                    build_complex, h2_report, is_coboundary)
from .catalog import (FamilySpec, build, family_parameter_names, list_catalog,
                      make_A, make_B, make_D, make_E, make_F, make_K,
                      make_cla_35, make_cla_a, make_cla_b, make_lie,
                      make_lie_preset)
from .errors import HopfAlgError, InputError, ParameterError, StructuralError
from .exactlin import Matrix, Scalar, format_scalar, scalar
from .hopf import HopfPresentation, TensorElement, tensor_of
from .jsonio import (cla_from_json, cla_to_json, element_to_terms,
                     load_object, presentation_from_json, presentation_to_json)
from .ore import AlgebraElement, GeneratorInfo, OrePresentation, bracket
from .reports import Check, VerificationReport
from .structure import (FilteredSubspace, associated_graded,
                        complete_bound, coradical_filtration, extract_cla,
                        lantern_of_hopf, p2_space, primitive_space)

__all__ = [
    "AlgebraElement", "CLA", "Check", "CobarComplex", "CobarReport",
    "CoboundaryResult", "FamilySpec", "FilteredSubspace", "GeneratorInfo",
    "GradedLie", "HopfAlgError", "HopfPresentation", "InputError", "Matrix",
    "OrePresentation", "ParameterError", "Scalar", "StructuralError",
    "TensorElement", "VerificationReport", "associated_graded", "bracket",
    "build", "build_complex", "cla_from_json", "cla_to_json", "cla_transform",
    "complete_bound", "conilpotency_index", "coradical_filtration",
    "element_to_terms", "enveloping", "extract_cla", "family_parameter_names",
    "format_scalar", "h2_report", "is_coboundary", "kernel_delta",
    "lantern_of_cla", "lantern_of_hopf", "list_catalog", "load_object",
    "make_A", "make_B", "make_D", "make_E", "make_F", "make_K", "make_cla_35",
    "make_cla_a", "make_cla_b", "make_lie", "make_lie_preset", "p2_space",
    "presentation_from_json", "presentation_to_json", "primitive_space",
    "scalar", "tensor_of", "verify_cla",
]
