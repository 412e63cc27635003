"""sobex: quantitative Sobolev extension and Neumann heat-kernel checks.

The package certifies, numerically and at desk scale on model surfaces,
an explicit reflection-based Sobolev extension operator near smooth
domain boundaries (cutoffs, comparison constants, operator-norm bound)
together with the downstream Neumann heat-kernel inequalities it
supports (diagonal bounds, volume doubling, Gagliardo-Nirenberg, Kato
quantities, eigenvalue lower bounds).

Layout:

* :mod:`sobex.surfaces`   analytic model surfaces, geodesics, Jacobi fields
* :mod:`sobex.comparison` closed-form comparison machinery and bounds
* :mod:`sobex.fermi`      domains, normal (tube) charts, regularity checks
* :mod:`sobex.extension`  the extension operator and its H1 certification
* :mod:`sobex.heat`       discrete Neumann spectra, kernels, diagnostics
* :mod:`sobex.cli`        the ``sobex`` command-line front end
"""

from .comparison import (
    ComparisonProfile,
    CurvatureData,
    admissible_rolling_radius,
    distortion_factor,
    extension_norm_bound,
    focal_radius,
    jacobi_factor,
    jacobi_factor_prime,
    jacobi_factor_zero,
    mean_curvature_bound,
    round_ball_norm_bound,
    volume_ratio_bounds,
)
from .extension import (
    CutoffFamily,
    ExtendedField,
    ScalarField,
    Trace1D,
    c1_matching_error,
    constant_field,
    h1_norm,
    operator_norm_estimate,
    polynomial_field,
    random_fourier_trace,
    random_smooth_fields,
    smoothstep_cutoff,
    trig_field,
    verify_1d_inequality,
)
from .fermi import (
    BoundarySample,
    DomainSpec,
    FermiChart,
    GeodesicDisk,
    RadialProfile,
    RegularityReport,
    check_regularity,
)
from .heat import (
    CurvatureField,
    DiscreteDomain,
    NeumannSystem,
    assemble,
    curvature_field,
    diagonal_bound_check,
    doubling_comparability,
    doubling_constant,
    eigenvalue_diagnostic,
    fit_inverse_time_envelope,
    gn_check,
    heat_kernel,
    integral_ricci,
    kato_quantity,
    li_yau_check,
    vev_finiteness_sweep,
    vev_norm,
)
from .surfaces import (
    GeodesicState,
    JacobiValue,
    ModelSurface,
    Trajectory,
    WarpProfile,
    integrate_geodesic,
    jacobi_transport,
    poly_cosh_mix_profile,
)

__all__ = [
    # comparison
    "ComparisonProfile", "CurvatureData", "admissible_rolling_radius",
    "distortion_factor", "extension_norm_bound", "focal_radius",
    "jacobi_factor", "jacobi_factor_prime", "jacobi_factor_zero",
    "mean_curvature_bound", "round_ball_norm_bound", "volume_ratio_bounds",
    # surfaces
    "GeodesicState", "JacobiValue", "ModelSurface", "Trajectory",
    "WarpProfile", "integrate_geodesic", "jacobi_transport", "poly_cosh_mix_profile",
    # fermi
    "BoundarySample", "DomainSpec", "FermiChart", "GeodesicDisk",
    "RadialProfile", "RegularityReport", "check_regularity",
    # extension
    "CutoffFamily", "ExtendedField", "ScalarField", "Trace1D",
    "c1_matching_error", "constant_field", "h1_norm", "operator_norm_estimate",
    "polynomial_field", "random_fourier_trace", "random_smooth_fields",
    "smoothstep_cutoff", "trig_field", "verify_1d_inequality",
    # heat
    "CurvatureField", "DiscreteDomain", "NeumannSystem", "assemble",
    "curvature_field", "diagonal_bound_check", "doubling_comparability",
    "doubling_constant", "eigenvalue_diagnostic", "fit_inverse_time_envelope",
    "gn_check", "heat_kernel", "integral_ricci", "kato_quantity",
    "li_yau_check", "vev_finiteness_sweep", "vev_norm",
]

__version__ = "0.1.0"
