"""Spin-chain state transfer laboratory.

Build chain models, compute optimal window encodings from the singular value
decomposition of windowed propagators, evaluate exact transfer-fidelity
formulas, and quantify robustness under seeded coupling/field disorder.
"""

from .chain import (Chain, NumericalFailure, chain_from_dict, chain_to_dict, load_chain,
                    rescale_to_unit_max, save_chain)
from .disorder import (DisorderSpec, Distribution, counter_uniform, disorder_from_dict,
                       disorder_to_dict, load_disorder, normal_disorder, save_disorder,
                       sample_disordered_chain, uniform_disorder, zero_disorder)
from .encoding import (EncodingSolution, best_excitation_count, encoding_to_dict,
                       end_to_end_fidelity, fidelity_haselgrove, fidelity_multi,
                       fidelity_single, optimal_encoding, save_encoding)
from .fermion import (ExcitationBasis, build_subspace_hamiltonian, determinant_amplitude,
                      excitation_basis, free_fermion_report, subspace_propagator,
                      verify_free_fermion)
from .models import (SpectrumTarget, apollaro_chain, auto_transfer_time, default_peak_hint,
                     first_peak_time, inverse_persymmetric_jacobi, is_mirror_symmetric,
                     pst_chain, pst_transfer_time, quadratic_chain, quadratic_spectrum,
                     quadratic_time_bound, swap_trace_first, swap_trace_second,
                     uniform_chain)
from .montecarlo import (FidelityStats, SweepAxis, SweepGrid, TransferPolicy, grid_to_csv,
                         monte_carlo, quantile_interpolated, sample_fidelity,
                         save_grid_csv, save_grid_descriptor, selection_probability,
                         sweep)
from .optimize import (Objective, OptimizationResult, evaluate_objective, first_order_response,
                       objective_landscape, optimize_apollaro)
from .spectral import (Eigensystem, TransferWindow, eigendecompose, end_windows,
                       full_propagator, propagator_amplitude, window_amplitudes)

__version__ = "0.1.0"
