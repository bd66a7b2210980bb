"""End-to-end runners for the two W-state generation schemes.

Scheme runners are pure orchestrations over the linalg/fock/evolve/
postselect modules and return a :class:`SchemeReport` that serializes to
a JSON object with the coupler, output state and post-selection nested in
it. Identical inputs produce byte-identical reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fock, jsontext, linalg
from .errors import NumericalError, size
from .fock import (
    FockState,
    Polarization,
    SuperposedState,
    single_photon_state,
    target_from_coefficients,
    w_state_path,
    w_state_polarization,
)
from .evolve import evolve, require_capacity
from .postselect import CoincidencePattern, PostSelectionResult, fidelity, postselect

PUBLISHED_PROBABILITIES = {3: "1/9", 4: "1/16"}


def _single_photon_output(u: np.ndarray, state: FockState) -> tuple[SuperposedState, np.ndarray]:
    """Output of the one-H-photon ``state`` through ``u``, and its amplitude at each port."""
    n, out = state.n_ports, evolve(u, state)
    amps = np.zeros(n, dtype=complex)
    # Each term holds the photon at one port, the one nonzero H column of its row.
    amps[np.nonzero(out.occupations[:, :n])[1]] = out.amplitudes
    return out, amps


@dataclass(frozen=True)
class SchemeReport:
    scheme_kind: str  # "path-W" | "polarization-W" | "designed-path"
    n: int
    unitary_used: np.ndarray
    output_state: SuperposedState
    post_selection: Optional[PostSelectionResult]
    fidelity_to_target: float
    success_probability: float
    port_probabilities: Optional[tuple[float, ...]] = None
    probability_uniform: Optional[bool] = None
    reference_note: Optional[str] = None

    def to_json_obj(self) -> dict:
        return jsontext.expand(self.json_frame())

    def json_frame(self) -> dict:
        """:meth:`to_json_obj` with the matrix entries and term lists as chunk writers."""
        obj = {
            "schemeKind": self.scheme_kind,
            "n": self.n,
            "unitaryUsed": linalg.matrix_json_frame(self.unitary_used),
            "outputState": self.output_state.json_frame(),
            "postSelection": (
                self.post_selection.json_frame() if self.post_selection else None
            ),
            "fidelityToTarget": self.fidelity_to_target,
            "successProbability": self.success_probability,
        }
        if self.port_probabilities is not None:
            obj["portProbabilities"] = list(self.port_probabilities)
        if self.probability_uniform is not None:
            obj["probabilityUniform"] = self.probability_uniform
        if self.reference_note is not None:
            obj["referenceNote"] = self.reference_note
        return obj

    def to_json(self) -> str:
        return jsontext.dumps(self.json_frame())


def run_path_w(n: int, input_port: int = 0) -> SchemeReport:
    """Single photon through the n-port DFT coupler: a path W state, no post-selection.

    The success probability is identically 1 (the full output state is the
    report's state, nothing is dropped). The report carries both the raw
    fidelity to the uniform-phase path W and the probability-distribution
    check: for input ports other than 0 the DFT column has nonuniform
    phases, so |amp|^2 is uniform while the raw fidelity is not 1.
    """
    n = size(n, "port count", 2)
    state = single_photon_state(input_port, Polarization.H, n)  # checks input_port before DFT_n
    u = linalg.dft_multiport(n)
    out, amps = _single_photon_output(u, state)
    probs = tuple(fock.probabilities(amps).tolist())
    uniform = all(abs(p - 1.0 / n) <= 1e-12 for p in probs)
    return SchemeReport(
        scheme_kind="path-W",
        n=n,
        unitary_used=u,
        output_state=out,
        post_selection=None,
        fidelity_to_target=fidelity(out, w_state_path(n)),
        success_probability=1.0,
        port_probabilities=probs,
        probability_uniform=uniform,
    )


def scheme2_input(n: int) -> FockState:
    """The polarization-scheme input: H photons at ports 0..n-2, a V photon at port n-1."""
    n = size(n, "port count", 1)
    return FockState(n, (1,) * (n - 1) + (0,), (0,) * (n - 1) + (1,))


def polarization_scheme_coupler(n: int) -> np.ndarray:
    """Coupler used by the polarization scheme: the n-point DFT multiport,
    except n=4 where the beam-splitter-tree quarter is the coupler whose
    coincidence branches interfere with equal phases (the DFT_4 branches
    alternate in sign and would give a locally-equivalent but not uniform
    W state)."""
    if size(n, "port count", 2) == 4:
        return linalg.canonical_quarter()
    return linalg.dft_multiport(n)


def run_polarization_w(n: int) -> SchemeReport:
    """n single photons through the n-port DFT coupler, post-selected on one per port.

    The conditional state is the n-photon polarization W; the success
    probability for n=3 is 1/9 and for n=4 is 1/16. For other n the
    numbers are computed with no published reference.
    """
    n = size(n, "port count", 2)
    require_capacity(state := scheme2_input(n))  # before the coupler's n^2 entries exist
    u = polarization_scheme_coupler(n)
    out = evolve(u, state)
    result = postselect(out, CoincidencePattern.one_per_port())
    fid = fidelity(result.conditional, w_state_polarization(n))
    if n in PUBLISHED_PROBABILITIES:
        note = f"published value {PUBLISHED_PROBABILITIES[n]}"
    else:
        note = "computed, no published reference"
    return SchemeReport(
        scheme_kind="polarization-W",
        n=n,
        unitary_used=u,
        output_state=out,
        post_selection=result,
        fidelity_to_target=fid,
        success_probability=result.probability,
        reference_note=note,
    )


def run_designed_path(target: np.ndarray) -> SchemeReport:
    """Complete a unitary from the target column and produce that path state exactly.

    A single photon enters port 0 of the completed coupler; the output
    amplitude at port k must reproduce target[k] within ``linalg.UNITARITY_TOL``.
    """
    c = linalg.check_normalized_column(target)
    n = c.size
    u = linalg.complete_unitary_from_column(c)
    out, amps = _single_photon_output(u, single_photon_state(0, Polarization.H, n))
    target_state = target_from_coefficients(c[::-1], "path")
    for p, amp in enumerate(amps.tolist()):
        if abs(amp - c[p]) > linalg.UNITARITY_TOL:
            raise NumericalError(
                f"designed output at port {p} is {amp}, expected {c[p]}"
            )
    return SchemeReport(
        scheme_kind="designed-path",
        n=n,
        unitary_used=u,
        output_state=out,
        post_selection=None,
        fidelity_to_target=fidelity(out, target_state),
        success_probability=1.0,
        port_probabilities=tuple(fock.probabilities(c).tolist()),
    )
