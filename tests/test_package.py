import sobex
from sobex import comparison, extension, fermi, heat, surfaces

# the package's public names; each module's __all__ lists its own
PUBLIC = {
    "ComparisonProfile", "CurvatureData", "admissible_rolling_radius", "distortion_factor",
    "extension_norm_bound", "focal_radius", "jacobi_factor", "jacobi_factor_prime",
    "jacobi_factor_zero", "mean_curvature_bound", "round_ball_norm_bound",
    "GeodesicState", "JacobiValue", "ModelSurface", "Trajectory", "WarpProfile",
    "integrate_geodesic", "jacobi_transport", "poly_cosh_mix_profile",
    "BoundarySample", "DomainSpec", "FermiChart", "GeodesicDisk", "RadialProfile",
    "RegularityReport", "check_regularity",
    "CutoffFamily", "ExtendedField", "ScalarField", "Trace1D", "c1_matching_error",
    "constant_field", "h1_norm", "operator_norm_estimate", "polynomial_field",
    "random_fourier_trace", "random_smooth_fields", "smoothstep_cutoff", "trig_field",
    "verify_1d_inequality",
    "DiscreteDomain", "NeumannSystem", "assemble", "diagonal_bound_check",
    "doubling_comparability", "doubling_constant", "eigenvalue_diagnostic",
    "fit_inverse_time_envelope", "gn_check", "heat_kernel", "integral_ricci",
    "kato_quantity", "li_yau_check", "ricci_negative_part", "vev_finiteness_sweep",
    "vev_norm",
}


def test_package_exports_the_module_lists():
    names = sobex.__all__
    assert len(PUBLIC) == 56
    assert len(names) == len(set(names)) and set(names) == PUBLIC
    assert names == (comparison.__all__ + surfaces.__all__ + fermi.__all__
                     + extension.__all__ + heat.__all__)
    for name in names:
        module = next(m for m in (comparison, surfaces, fermi, extension, heat)
                      if name in m.__all__)
        assert getattr(sobex, name) is getattr(module, name)
