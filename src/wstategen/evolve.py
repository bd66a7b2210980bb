"""Exact Fock-state evolution through a multiport coupler.

The coupler acts on spatial ports only, identically for both
polarizations, so H photons and V photons evolve as independent
spatial-only subproblems and their amplitudes multiply. That factorized
path is the production algorithm; :func:`oracle_evolve` re-derives the
same output by brute-force expansion of transformed creation operators
over the lifted 2n x 2n mode matrix and exists purely to cross-validate.

Amplitudes between occupation patterns are permanents of row/column
repeated submatrices with factorial normalization:

    <out|U|in> = per(U[out-rows, in-cols]) / sqrt(prod(in!) * prod(out!))
"""
from __future__ import annotations

import math
from itertools import product as iproduct
from typing import Iterator

import numpy as np

from .errors import CapacityError, NumericalError
from .fock import FockState, SuperposedState
from .linalg import permanent, verify_unitary

# Exact-enumeration limits; see CapacityError.
PHOTON_CAP = 12
PATTERN_CAP = 10**6

# The brute-force oracle expands (2n)^k monomials.
ORACLE_PHOTON_CAP = 4
ORACLE_PORT_CAP = 4


def lift_to_modes(u: np.ndarray) -> np.ndarray:
    """Block-diagonal 2n x 2n mode-level matrix: H block first, then V.

    Mode (p, H) is row/column p, mode (p, V) is row/column n + p; there is
    no H-V mixing.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    lifted = np.zeros((2 * n, 2 * n), dtype=complex)
    lifted[:n, :n] = u
    lifted[n:, n:] = u
    return lifted


def _occupation_vectors(n_ports: int, n_photons: int) -> Iterator[tuple[int, ...]]:
    """All length-n occupation vectors summing to n_photons, lexicographic order."""
    if n_ports == 1:
        yield (n_photons,)
        return
    for first in range(n_photons + 1):
        for rest in _occupation_vectors(n_ports - 1, n_photons - first):
            yield (first,) + rest


def _pattern_count(n_ports: int, n_photons: int) -> int:
    return math.comb(n_ports + n_photons - 1, n_photons)


def _repeat_indices(occ: tuple[int, ...]) -> list[int]:
    return [p for p, c in enumerate(occ) for _ in range(c)]


def _factorial_norm(occ: tuple[int, ...]) -> float:
    return math.prod(math.factorial(c) for c in occ)


def _single_pol_amplitude(u: np.ndarray, occ_in: tuple[int, ...],
                          occ_out: tuple[int, ...]) -> complex:
    """<occ_out|U|occ_in> for photons of one polarization on the spatial ports."""
    if sum(occ_in) == 0:
        return 1.0 + 0.0j
    sub = u[np.ix_(_repeat_indices(occ_out), _repeat_indices(occ_in))]
    return permanent(sub) / math.sqrt(_factorial_norm(occ_in) * _factorial_norm(occ_out))


def _check_transition_caps(input_state: FockState) -> None:
    k = input_state.total_photons()
    if k > PHOTON_CAP:
        raise CapacityError(f"{k} photons exceeds the cap of {PHOTON_CAP}")
    for pol_count in input_state.photons_per_pol().values():
        if _pattern_count(input_state.n_ports, pol_count) > PATTERN_CAP:
            raise CapacityError(
                f"{pol_count} photons over {input_state.n_ports} ports "
                f"exceeds the {PATTERN_CAP} output-pattern cap"
            )


def _require_compatible(u: np.ndarray, input_state: FockState) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if u.shape[0] != input_state.n_ports:
        raise ValueError(
            f"matrix is {u.shape[0]}x{u.shape[0]} but state has {input_state.n_ports} ports"
        )
    return u


def transition_amplitude(u: np.ndarray, input_state: FockState,
                         output_state: FockState) -> complex:
    """Exact amplitude <output|U|input>; zero unless photon counts match per polarization."""
    u = _require_compatible(u, input_state)
    if output_state.n_ports != input_state.n_ports:
        raise ValueError(
            f"input has {input_state.n_ports} ports, output has {output_state.n_ports}"
        )
    if input_state.photons_per_pol() != output_state.photons_per_pol():
        return 0.0 + 0.0j
    return (_single_pol_amplitude(u, input_state.h, output_state.h)
            * _single_pol_amplitude(u, input_state.v, output_state.v))


def evolve(u: np.ndarray, input_state: FockState) -> SuperposedState:
    """Full output superposition of ``input_state`` through the coupler ``u``.

    Enumerates every output occupation pattern with the input's photon
    number per polarization; terms appear in lexicographic occupation
    order, H sector major.
    """
    u = _require_compatible(u, input_state)
    if not verify_unitary(u):
        raise NumericalError("matrix not unitary within 1e-10")
    _check_transition_caps(input_state)
    n = input_state.n_ports

    per_pol = [
        [(occ_out, _single_pol_amplitude(u, occ_in, occ_out))
         for occ_out in _occupation_vectors(n, sum(occ_in))]
        for occ_in in (input_state.h, input_state.v)
    ]

    terms: dict[FockState, complex] = {}
    for (occ_h, amp_h), (occ_v, amp_v) in iproduct(*per_pol):
        amp = amp_h * amp_v
        if amp != 0:
            terms[FockState(n, occ_h, occ_v)] = amp
    return SuperposedState(terms, n)


def oracle_evolve(u: np.ndarray, input_state: FockState) -> SuperposedState:
    """Brute-force evolution by expanding transformed creation-operator sums.

    Each input photon in lifted mode m contributes a factor
    sum_k lifted[k, m] * adag_k; expanding the product and collecting
    monomials with bosonic sqrt(n!) normalization gives the output state.
    Independent of :func:`evolve`; capped much tighter.
    """
    u = _require_compatible(u, input_state)
    n = input_state.n_ports
    k = input_state.total_photons()
    if k > ORACLE_PHOTON_CAP or n > ORACLE_PORT_CAP:
        raise CapacityError(
            f"oracle is capped at {ORACLE_PHOTON_CAP} photons and {ORACLE_PORT_CAP} ports"
        )
    lifted = lift_to_modes(u)
    occ_in = input_state.h + input_state.v
    input_modes = _repeat_indices(occ_in)
    input_norm = _factorial_norm(occ_in)

    collected: dict[tuple[int, ...], complex] = {}
    for choice in iproduct(range(2 * n), repeat=len(input_modes)):
        coeff = 1.0 + 0.0j
        for out_mode, in_mode in zip(choice, input_modes):
            coeff *= lifted[out_mode, in_mode]
        occ = [0] * (2 * n)
        for out_mode in choice:
            occ[out_mode] += 1
        key = tuple(occ)
        collected[key] = collected.get(key, 0.0) + coeff

    terms = {
        FockState(n, occ[:n], occ[n:]):
            coeff * math.sqrt(_factorial_norm(occ)) / math.sqrt(input_norm)
        for occ, coeff in collected.items()
    }
    return SuperposedState(terms, n)
