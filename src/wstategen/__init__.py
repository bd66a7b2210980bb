"""Exact simulation of W-state generation with multiport fiber couplers.

Two schemes: a single photon through an N-port DFT coupler yields a path
W state deterministically, and N single photons (one V-polarized) through
the same coupler yield the N-photon polarization W state under
one-photon-per-port post-selection. Plus a designer that completes a
unitary from an arbitrary normalized target column.
"""

from .errors import CapacityError, NumericalError
from .fock import (
    FockState,
    Mode,
    Polarization,
    SuperposedState,
    product_input,
    single_photon_state,
    target_from_coefficients,
    w_state_path,
    w_state_polarization,
)
from .linalg import (
    canonical_quarter,
    complete_unitary_from_column,
    dft_multiport,
    permanent,
    permanent_naive,
    read_matrix,
    verify_unitary,
    write_matrix,
)
from .evolve import evolve, lift_to_modes, oracle_evolve, transition_amplitude
from .postselect import (
    CoincidencePattern,
    PostSelectionResult,
    branch_amplitude_report,
    fidelity,
    postselect,
)
from .schemes import (
    SchemeReport,
    polarization_scheme_coupler,
    run_designed_path,
    run_path_w,
    run_polarization_w,
    scheme2_input,
)

__all__ = [
    "CapacityError",
    "CoincidencePattern",
    "FockState",
    "Mode",
    "NumericalError",
    "Polarization",
    "PostSelectionResult",
    "SchemeReport",
    "SuperposedState",
    "branch_amplitude_report",
    "canonical_quarter",
    "complete_unitary_from_column",
    "dft_multiport",
    "evolve",
    "fidelity",
    "lift_to_modes",
    "oracle_evolve",
    "permanent",
    "permanent_naive",
    "polarization_scheme_coupler",
    "postselect",
    "product_input",
    "read_matrix",
    "run_designed_path",
    "run_path_w",
    "run_polarization_w",
    "scheme2_input",
    "single_photon_state",
    "target_from_coefficients",
    "transition_amplitude",
    "verify_unitary",
    "w_state_path",
    "w_state_polarization",
    "write_matrix",
]

__version__ = "0.1.0"
