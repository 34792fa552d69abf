"""Exact Chern/Euler invariants of orbifold surfaces with ADE singularities.

The package computes, in exact rational arithmetic throughout:

* twisted-sector Todd contributions of ADE quotient singularities, by
  brute force over the finite subgroups of SU(2) and by closed form;
* orbifold c1^2 and c2 (orbifold Euler characteristic) for surfaces given
  either as SNC pairs or with isolated ADE points;
* the inequality 3c2 >= c1^2, with nef-ness a user-asserted flag.

See the ``orbichern`` command-line tool for the file-driven interface.
"""

from .ade import AdeLabel, AdeResolutionData, resolution_data
from .contributions import (
    ContributionReport,
    assemble_type_d_contribution,
    build_contribution_report,
    class_sum_contribution,
    closed_form_contribution,
    contribution_for_label,
    element_sum_contribution,
    verify_type_a_identity,
    verify_type_d_half_angle_identity,
)
from .errors import (
    BoundExceeded,
    DescriptionError,
    FieldMismatch,
    IdentityFailure,
    InvalidLabel,
    NonRationalTotal,
    OrbichernError,
    TraceTwoNonIdentity,
    ZeroInversion,
)
from .groups import (
    ConjugacyClass,
    FiniteSubgroup,
    Quaternion,
    Word,
    build_ade_group,
    conjugacy_classes,
    generate_group,
)
from .invariants import (
    Crossing,
    DivisorEntry,
    InvariantReport,
    IsolatedPointsDescription,
    SncPairDescription,
    Verdict,
    bmy_verdict,
    codim2_c2,
    codim2_equivalence_check,
    gerbe_scale,
    isolated_points_report,
    pair_c1_squared,
    pair_orbifold_euler,
    snc_report,
)
from .scalars import CycloScalar, cyclo_trace, cyclotomic_polynomial, parse_rational

__version__ = "0.1.0"

__all__ = [
    "AdeLabel",
    "AdeResolutionData",
    "BoundExceeded",
    "ConjugacyClass",
    "ContributionReport",
    "Crossing",
    "CycloScalar",
    "DescriptionError",
    "DivisorEntry",
    "FieldMismatch",
    "FiniteSubgroup",
    "IdentityFailure",
    "InvalidLabel",
    "InvariantReport",
    "IsolatedPointsDescription",
    "NonRationalTotal",
    "OrbichernError",
    "Quaternion",
    "SncPairDescription",
    "TraceTwoNonIdentity",
    "Verdict",
    "Word",
    "ZeroInversion",
    "assemble_type_d_contribution",
    "bmy_verdict",
    "build_ade_group",
    "build_contribution_report",
    "class_sum_contribution",
    "closed_form_contribution",
    "codim2_c2",
    "codim2_equivalence_check",
    "conjugacy_classes",
    "contribution_for_label",
    "cyclo_trace",
    "cyclotomic_polynomial",
    "element_sum_contribution",
    "gerbe_scale",
    "generate_group",
    "isolated_points_report",
    "pair_c1_squared",
    "pair_orbifold_euler",
    "parse_rational",
    "resolution_data",
    "snc_report",
    "verify_type_a_identity",
    "verify_type_d_half_angle_identity",
]
