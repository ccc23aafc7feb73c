"""Dunkl/Hankel transform calculus with oscillation and variation
seminorms, Carleson-type maximal operators, and Muckenhoupt weight
checkers, verified by dense-quadrature identities.  Each name below is
imported from its module on first use, so importing the package loads no numpy."""

from importlib import import_module

_EXPORTS = {   # module -> the names it exports here
    "errors": "ArgumentError DomainError DunklOscError GateError ResolutionError",
    "special": "bessel_j_normalized",
    "funcspace": "FULL_LINE HALF_LINE CorpusMember Grid SampledFn away_from_zero_corpus bump "
                 "default_corpus even_odd_split gaussian half_line_corpus make_breakpoint_grid "
                 "make_graded_grid moment_cancelled_corpus multiply_power random_band_modes "
                 "read_sampled_fn sample smooth_corpus write_sampled_fn",
    "transforms": "check_resolution dunkl dunkl_inverse dunkl_modified dunkl_modified_inverse "
                  "fourier fourier_inverse frequency_grid hankel hankel_modified "
                  "resolvable_frequency transplant_dunkl",
    "projections": "PartialSumFamily ThresholdSeq build_family default_t_grid dunkl_partial_sum "
                   "family_to_csv fourier_partial_sum hankel_partial_sum radial_partial_sum",
    "classical_ops": "SupGrid carleson_hunt conjugate_hardy default_sup_grid "
                     "hardy_littlewood_max maximal_hilbert prestini_majorant",
    "seminorms": "max_oscillation oscillation variation",
    "weights": "NormSpec Weight ap_alpha_check ap_check beta_star conjectured_measure_ap_check "
               "power_weight range_dyadic_oscillation range_full_oscillation transplant_range "
               "w_ab_weight weighted_lp_norm",
    "harness": "ExperimentReport Resolution bcv_lattice_weights dyadic_partition "
               "oscillation_ratio_sweep prestini_constant_sweep resolution_n512 "
               "run_identity_suite transference_demo transplant_roundtrip_report "
               "weighted_carleson_sweep write_reports_jsonl write_summary_csv",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
