"""Potential-theoretic discrepancy toolkit for the unit d-sphere.

Implements Newtonian potentials of signed measures supported on an inner
shell, a pseudo-differential operator acting on exterior harmonic fields,
equal-area sphere partitions with exact cell diameters, and the resulting
integration-error identities and bounds, together with a small CLI.
"""

from .specfun import (
    surface_area,
    harmonic_dim,
    gegenbauer,
    legendre,
    legendre_table,
    legendre_derivative_at_one,
    kernel_coefficient,
    truncation_degree,
    latitude_quadrature,
)
from .geom import (
    Scattering,
    Partition,
    PartitionMatchError,
    equal_area_partition,
    partition_norm,
    representatives,
    match_partition_to_scattering,
    mesh_norm,
    reduce_scattering,
    random_points,
)
from .measures import (
    DiscreteSignedMeasure,
    QuadratureMeasure,
    ShellConfig,
    SingularityError,
    sphere_surface_quadrature,
    potential_values,
    shell_norm,
    conjugate_exponent,
    zonal_coefficients_of_atom,
    balayage_transform,
    zonal_potential_profile,
    shell_zonal_potential_profile,
)
from .harmonic import (
    HarmonicField,
    FieldExpansion,
    SobolevParams,
    make_field,
    random_field,
    evaluate_field,
    field_values,
    expand_field,
    expansion_values,
    apply_D,
    apply_D_values,
    funk_hecke,
    sobolev_norm,
    embedding_constants,
    lipschitz_constant,
    lipschitz_check,
)
from .discrepancy import (
    IdentityReport,
    BoundReport,
    PartitionSupReport,
    ScalingStudy,
    GateConditionError,
    AdmissibleWindowError,
    kh_identity,
    duality_bound,
    quadrature_error_bound,
    partition_weights,
    difference_measure,
    partition_rule_bound,
    reduction_pipeline,
    scaling_study,
)

__version__ = "0.1.0"
