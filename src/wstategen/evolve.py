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
from itertools import combinations_with_replacement, product as iproduct
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, NumericalError
from .fock import FockState, Product, SuperposedState
from .linalg import UNITARITY_TOL, permanent, square, verify_unitary

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


def _sector_amplitudes(u: np.ndarray, occ_in: tuple[int, ...], outputs: Iterable[Sequence[int]]
                       ) -> Iterator[complex]:
    """<occ_out|U|occ_in> for photons of one polarization, per output pattern.

    Each pattern in ``outputs`` is the sorted list of its photons' ports,
    one entry per photon, which is also the row list of its permanent.
    """
    cols = u[:, [p for p, c in enumerate(occ_in) for _ in range(c)]]
    in_norm = math.prod(map(math.factorial, occ_in))
    for ports in outputs:
        if not ports:
            yield 1.0 + 0.0j
            continue
        out_norm = math.prod(map(math.factorial, map(ports.count, set(ports))))
        yield permanent(cols[list(ports)]) / math.sqrt(in_norm * out_norm)


def _check_transition_caps(input_state: FockState) -> None:
    k = input_state.total_photons()
    if k > PHOTON_CAP:
        raise CapacityError(f"{k} photons exceeds the cap of {PHOTON_CAP}")
    n, k_h, k_v = input_state.n_ports, sum(input_state.h), sum(input_state.v)
    n_terms = math.comb(n + k_h - 1, k_h) * math.comb(n + k_v - 1, k_v)
    if n_terms > PATTERN_CAP:
        raise CapacityError(
            f"{k_h} H and {k_v} V photons over {n} ports give {n_terms} output terms, "
            f"over the {PATTERN_CAP} output-term cap"
        )


def _require_compatible(u: np.ndarray, input_state: FockState) -> np.ndarray:
    u = square(u)
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

    def sector(occ_in: tuple[int, ...], occ_out: tuple[int, ...]) -> complex:
        ports = [p for p, c in enumerate(occ_out) for _ in range(c)]
        return next(_sector_amplitudes(u, occ_in, [ports]))

    return sector(input_state.h, output_state.h) * sector(input_state.v, output_state.v)


def evolve(u: np.ndarray, input_state: FockState) -> SuperposedState:
    """Full output superposition of ``input_state`` through the coupler ``u``.

    Enumerates every output occupation pattern with the input's photon
    number per polarization; terms appear in lexicographic occupation
    order, H sector major.
    """
    u = _require_compatible(u, input_state)
    if not verify_unitary(u):
        raise NumericalError(f"matrix not unitary within {UNITARITY_TOL}")
    _check_transition_caps(input_state)
    n = input_state.n_ports

    sectors = []
    for occ_in in (input_state.h, input_state.v):
        # The patterns come in descending occupation order; the terms go in ascending.
        patterns = list(combinations_with_replacement(range(n), sum(occ_in)))[::-1]
        ports = np.array(patterns, dtype=np.intp, ndmin=2)  # 2-D for the photon-free () too
        # Add one photon per (pattern, port) entry; counts are at most PHOTON_CAP.
        occs = np.zeros((len(patterns), n), dtype=np.int8)
        np.add.at(occs, (np.arange(len(patterns))[:, None], ports), 1)
        sectors.append((occs, list(_sector_amplitudes(u, occ_in, patterns))))
    return SuperposedState(Product(*sectors), n)


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
    input_modes = [m for m, c in enumerate(occ_in) for _ in range(c)]
    input_norm = math.prod(math.factorial(c) for c in occ_in)

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
            coeff * math.sqrt(math.prod(math.factorial(c) for c in occ)) / math.sqrt(input_norm)
        for occ, coeff in collected.items()
    }
    return SuperposedState(terms, n)
