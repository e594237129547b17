"""Exact-arithmetic secondary characteristic classes of foliations.

Truncated Weil complexes and their cohomology, the Vey basis and the
rigidity predicate, Pontrjagin independence certificates over product
test cycles, and Koszul frame models certifying the rigid families.
All coefficients are exact rationals; every report is deterministic.
"""

__version__ = "0.1.0"

import importlib

from .algebra import (Element, GeneratorMismatch, GeneratorSet, InexactCoefficient,
                      basis_of_degree)
from .dga import (CohomologyReport, DegreeMismatch, Differential, NotACocycle,
                  class_nonzero, cohomology)
from .weil import (IndexOutOfRange, OddCodimension, RigidFamilyEntry, VeyIndex,
                   godbillon_vey, spherical_rigid_classes, vey_basis,
                   vey_counts_by_degree, weil_complex)

# The frames and models exports are imported on first access (PEP 562),
# so a command that needs neither does not load them.
_LAZY = {
    **dict.fromkeys(("CharacteristicMap", "FrameCertificate", "FrameModel",
                     "build_frame_model", "certify_projective_family",
                     "certify_sphere_family", "permanence_family"), "frames"),
    **dict.fromkeys(("BundleMap", "Factor", "IndependenceReport", "ModelRing",
                     "PontrjaginMonomial", "admissible_monomials",
                     "canonical_bundle", "cp2", "evaluate_on_cycle",
                     "independence_certificate", "product_model", "pullback",
                     "sphere_model", "verify_symmetric_multiple"), "models"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Element", "GeneratorMismatch", "GeneratorSet", "InexactCoefficient",
    "basis_of_degree",
    "CohomologyReport", "DegreeMismatch", "Differential", "NotACocycle",
    "class_nonzero", "cohomology",
    "CharacteristicMap", "FrameCertificate", "FrameModel", "IndexOutOfRange",
    "build_frame_model", "certify_projective_family", "certify_sphere_family",
    "permanence_family",
    "BundleMap", "Factor", "IndependenceReport", "ModelRing",
    "PontrjaginMonomial", "admissible_monomials", "canonical_bundle", "cp2",
    "evaluate_on_cycle", "independence_certificate", "product_model",
    "pullback", "sphere_model", "verify_symmetric_multiple",
    "OddCodimension", "RigidFamilyEntry", "VeyIndex", "godbillon_vey",
    "spherical_rigid_classes", "vey_basis", "vey_counts_by_degree", "weil_complex",
    "__version__",
]
