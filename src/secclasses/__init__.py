"""Exact-arithmetic secondary characteristic classes of foliations.

Truncated Weil complexes and their cohomology, the Vey basis and the
rigidity predicate, Pontrjagin independence certificates over product
test cycles, and Koszul frame models certifying the rigid families.
All coefficients are exact rationals; every report is deterministic.
"""

__version__ = "0.1.0"

import importlib

# Every export, under the module that defines it.  The modules and the
# exports are imported on first access (PEP 562), so ``import secclasses``
# loads no submodule and a command loads only the modules it uses.
_EXPORTS = {
    "algebra": ("Element", "GeneratorMismatch", "GeneratorSet", "InexactCoefficient",
                "SecclassesError", "basis_of_degree"),
    "dga": ("CohomologyReport", "DegreeMismatch", "Differential", "NotACocycle",
            "class_nonzero", "cohomology"),
    "weil": ("IndexOutOfRange", "OddCodimension", "RigidFamilyEntry", "VeyIndex",
             "spherical_rigid_classes", "vey_basis", "vey_counts_by_degree",
             "weil_complex"),
    "frames": ("CharacteristicMap", "FrameCertificate", "FrameModel",
               "build_frame_model", "certify_projective_family",
               "certify_sphere_family", "permanence_family"),
    "models": ("BundleMap", "Factor", "IndependenceReport", "ModelRing",
               "PontrjaginMonomial", "admissible_monomials", "canonical_bundle",
               "cp2", "independence_certificate", "product_model", "sphere_model",
               "verify_symmetric_multiple"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_LAZY})
