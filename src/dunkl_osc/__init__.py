"""Dunkl/Hankel transform calculus with oscillation and variation
seminorms, Carleson-type maximal operators, and Muckenhoupt weight
checkers, verified by dense-quadrature identities."""

from .errors import (ArgumentError, DomainError, DunklOscError, GateError,
                     ResolutionError)
from .special import bessel_j_normalized
from .funcspace import (FULL_LINE, HALF_LINE, CorpusMember, Grid, SampledFn,
                        away_from_zero_corpus, bump, default_corpus,
                        even_odd_split, gaussian, half_line_corpus,
                        make_breakpoint_grid, make_graded_grid,
                        moment_cancelled_corpus, multiply_power,
                        random_band_modes, read_sampled_fn, sample,
                        smooth_corpus, write_sampled_fn)
from .transforms import (check_resolution, dunkl, dunkl_inverse,
                         dunkl_modified, dunkl_modified_inverse, fourier,
                         fourier_inverse, frequency_grid, hankel,
                         hankel_modified, resolvable_frequency,
                         transplant_dunkl)
from .projections import (PartialSumFamily, ThresholdSeq, build_family,
                          default_t_grid, dunkl_partial_sum, family_to_csv,
                          fourier_partial_sum, hankel_partial_sum,
                          radial_partial_sum)
from .classical_ops import (SupGrid, carleson_hunt, conjugate_hardy,
                            default_sup_grid, hardy_littlewood_max,
                            maximal_hilbert, prestini_majorant)
from .seminorms import max_oscillation, oscillation, variation
from .weights import (NormSpec, Weight, ap_alpha_check, ap_check, beta_star,
                      conjectured_measure_ap_check, power_weight,
                      range_dyadic_oscillation, range_full_oscillation,
                      transplant_range, w_ab_weight, weighted_lp_norm)
from .harness import (ExperimentReport, Resolution, bcv_lattice_weights,
                      dyadic_partition, oscillation_ratio_sweep,
                      prestini_constant_sweep, resolution_n512,
                      run_identity_suite, transference_demo,
                      transplant_roundtrip_report, weighted_carleson_sweep,
                      write_reports_jsonl, write_summary_csv)
