"""Coincidence post-selection and pure-state fidelity.

Detection is modelled per fiber: a pattern constrains the photon count of
each spatial port summed over polarization (the detector counts photons
per port and polarization is resolved afterwards). Post-selecting keeps
the matching terms and renormalizes; the discarded squared-amplitude
weight is reported separately.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, jsontext, linalg
from .errors import NumericalError, int_text, integer
from .fock import NORMALIZATION_TOL, FockState, Product, SuperposedState, fock_states, row_keys

# Below this a kept weight is treated as exact destructive interference,
# not renormalizable round-off.
ZERO_PROBABILITY_TOL = 1e-12


@dataclass(frozen=True)
class CoincidencePattern:
    """Detector-count predicate over spatial ports.

    Either one photon in every port (``one_per_port``) or explicit
    required counts on a subset of ports, other ports unconstrained.
    """

    required: tuple[tuple[int, int], ...] | None  # (port, count) pairs, or None

    @classmethod
    def one_per_port(cls) -> "CoincidencePattern":
        return cls(required=None)

    @classmethod
    def port_counts(cls, counts: dict[int, int]) -> "CoincidencePattern":
        required = tuple(sorted((integer(p, "ports"), integer(c, "counts"))
                                for p, c in counts.items()))
        for port, count in required:
            if port < 0:
                raise ValueError(f"port {int_text(port)} is negative")
            if count < 0:
                raise ValueError(f"required count {int_text(count)} for port {int_text(port)}"
                                 " is negative")
        return cls(required=required)

    def mask(self, state: SuperposedState) -> np.ndarray:
        """Which terms of ``state`` match (spatial counts ``h + v``); ValueError past its ports."""
        n = state.n_ports
        for port, _ in self.required or ():
            if port >= n:
                raise ValueError(f"pattern references port {int_text(port)}, device has {n}")
        occ = state.occupations
        spatial = occ[:, :n] + occ[:, n:]
        if self.required is None:
            return (spatial == 1).all(axis=1)
        ports, counts = [p for p, _ in self.required], [c for _, c in self.required]
        return (spatial[:, ports] == counts).all(axis=1)


@dataclass(frozen=True)
class PostSelectionResult:
    conditional: SuperposedState
    probability: float
    kept_terms: int
    dropped_probability: float

    def to_json_obj(self) -> dict:
        return jsontext.expand(self.json_frame())

    def json_frame(self) -> dict:
        """:meth:`to_json_obj` with the conditional's term list as a chunk writer."""
        return {
            "probability": self.probability,
            "droppedProbability": self.dropped_probability,
            "keptTerms": self.kept_terms,
            "conditional": self.conditional.json_frame(),
        }


def postselect(state: SuperposedState, pattern: CoincidencePattern) -> PostSelectionResult:
    """Condition on a coincidence pattern and renormalize the survivors.

    When the kept weight is below ``ZERO_PROBABILITY_TOL`` the conditional
    state is empty rather than renormalized noise.
    """
    mask = pattern.mask(state)
    kept = state.amplitudes[mask]
    probability = fock._add_up(fock.probabilities(kept))
    if probability < ZERO_PROBABILITY_TOL:
        conditional = SuperposedState({}, state.n_ports, require_normalized=False)
        return PostSelectionResult(conditional, 0.0, 0, 1.0)
    scale = 1.0 / math.sqrt(probability)
    conditional = SuperposedState(  # each a * scale, in the real form of Python's complex * float
        Product((state.occupations[mask], linalg.outer(kept, [scale])[:, 0])), state.n_ports
    )
    return PostSelectionResult(conditional, probability, len(kept), 1.0 - probability)


def branch_amplitude_report(
    state: SuperposedState, pattern: CoincidencePattern
) -> list[tuple[FockState, complex]]:
    """Kept terms with their pre-renormalization amplitudes, in deterministic order."""
    mask = pattern.mask(state)
    return list(zip(fock_states(state.n_ports, state.occupations[mask]),
                    state.amplitudes[mask].tolist()))


def fidelity(state: SuperposedState, target: SuperposedState) -> float:
    """|<target|state>|^2 for pure states; global-phase invariant, in [0, 1].

    Round-off above 1 within ``NORMALIZATION_TOL`` is clamped to 1; a larger
    excess means an input state is not normalized and raises NumericalError.
    """
    if state.n_ports != target.n_ports:
        raise ValueError(
            f"port counts differ: {state.n_ports} vs {target.n_ports}"
        )
    # A term of ``state`` missing from ``target`` adds an exact complex zero, so
    # only the rows that ``target`` also holds are summed, in term order, from 0j.
    index = target.row_index()
    rows = [(i, j) for i, key in enumerate(row_keys(state.occupations))
            if (j := index.get(key)) is not None]
    amps, target_amps = state.amplitudes.tolist(), target.amplitudes.tolist()
    overlap = fock._add_up(np.array([target_amps[j].conjugate() * amps[i] for i, j in rows]))
    (value,) = fock.probabilities([overlap]).tolist()
    if value > 1.0 + NORMALIZATION_TOL:
        raise NumericalError(f"fidelity {value!r} exceeds 1: a state is not normalized")
    return min(value, 1.0)
