"""Spin-chain state transfer laboratory.

Build chain models, compute optimal window encodings from the singular value
decomposition of windowed propagators, evaluate exact transfer-fidelity
formulas, and quantify robustness under seeded coupling/field disorder.
"""

from .chain import Chain, NumericalFailure, load_chain, rescale_to_unit_max, save_chain
from .disorder import (DisorderSpec, Distribution, normal_disorder, sample_disordered_chain,
                       uniform_disorder, zero_disorder)
from .encoding import (EncodingSolution, best_excitation_count, end_to_end_fidelity,
                       fidelity_haselgrove, fidelity_multi, fidelity_single, optimal_encoding,
                       save_encoding)
from .fermion import determinant_amplitude, free_fermion_report, verify_free_fermion
from .models import (apollaro_chain, auto_transfer_time, default_peak_hint, first_peak_time,
                     inverse_persymmetric_jacobi, pst_chain, pst_transfer_time, quadratic_chain,
                     quadratic_time_bound, swap_trace_first, swap_trace_second, uniform_chain)
from .montecarlo import (FidelityStats, SweepAxis, SweepGrid, TransferPolicy, grid_to_csv,
                         monte_carlo, sample_fidelity, save_grid_csv, save_grid_descriptor,
                         selection_probability, sweep)
from .optimize import (Objective, OptimizationResult, evaluate_objective, first_order_response,
                       objective_landscape, optimize_apollaro)
from .spectral import (Eigensystem, eigendecompose, end_windows, full_propagator,
                       propagator_amplitude, window_amplitudes)

__version__ = "0.1.0"
