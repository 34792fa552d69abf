"""Exact Chern/Euler invariants of orbifold surfaces with ADE singularities.

The package computes, in exact rational arithmetic throughout:

* twisted-sector Todd contributions of ADE quotient singularities, by
  brute force over the finite subgroups of SU(2) and by closed form;
* orbifold c1^2 and c2 (orbifold Euler characteristic) for surfaces given
  either as SNC pairs or with isolated ADE points;
* the inequality 3c2 >= c1^2, with nef-ness a user-asserted flag.

See the ``orbichern`` command-line tool for the file-driven interface.

The package root imports no submodule.  Each public name in ``__all__``
is looked up in its home module (``_HOMES``) on first access (PEP 562
``__getattr__``) and then bound here; the submodules (``orbichern.groups``
and the rest) resolve as attributes too, imported on first access.
So ``python -m orbichern check`` loads ``cli``, ``ade``, ``errors`` and
``invariants`` only, and ``group``, ``identity`` and ``table`` add
``contributions``, ``scalars`` and ``groups`` (see ``cli``).
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "ade": ("AdeLabel", "AdeResolutionData", "resolution_data"),
    "cli": ("parse_rational",),
    "contributions": (
        "ContributionReport", "assemble_type_d_contribution", "build_contribution_report",
        "class_sum_contribution", "closed_form_contribution", "contribution_for_label",
        "element_sum_contribution", "verify_type_a_identity", "verify_type_d_half_angle_identity",
    ),
    "errors": (
        "BoundExceeded", "DescriptionError", "FieldMismatch", "IdentityFailure", "InvalidLabel",
        "NonRationalTotal", "OrbichernError", "TraceTwoNonIdentity", "ZeroInversion",
    ),
    "groups": (
        "ConjugacyClass", "FiniteSubgroup", "Quaternion", "Word", "build_ade_group",
        "conjugacy_classes", "generate_group",
    ),
    "invariants": (
        "Crossing", "DivisorEntry", "InvariantReport", "IsolatedPointsDescription",
        "SncPairDescription", "Verdict", "bmy_verdict", "codim2_c2", "codim2_equivalence_check",
        "gerbe_scale", "isolated_points_report", "pair_c1_squared", "pair_orbifold_euler",
        "snc_report",
    ),
    "scalars": ("CycloScalar", "cyclo_trace", "cyclotomic_polynomial"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "AdeLabel", "AdeResolutionData", "BoundExceeded", "ConjugacyClass", "ContributionReport",
    "Crossing", "CycloScalar", "DescriptionError", "DivisorEntry", "FieldMismatch",
    "FiniteSubgroup", "IdentityFailure", "InvalidLabel", "InvariantReport",
    "IsolatedPointsDescription", "NonRationalTotal", "OrbichernError", "Quaternion",
    "SncPairDescription", "TraceTwoNonIdentity", "Verdict", "Word", "ZeroInversion",
    "assemble_type_d_contribution", "bmy_verdict", "build_ade_group",
    "build_contribution_report", "class_sum_contribution", "closed_form_contribution",
    "codim2_c2", "codim2_equivalence_check", "conjugacy_classes", "contribution_for_label",
    "cyclo_trace", "cyclotomic_polynomial", "element_sum_contribution", "gerbe_scale",
    "generate_group", "isolated_points_report", "pair_c1_squared", "pair_orbifold_euler",
    "parse_rational", "resolution_data", "snc_report", "verify_type_a_identity",
    "verify_type_d_half_angle_identity",
]


def __getattr__(name: str):
    """A submodule, imported, or a public name, bound here on first access."""
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
