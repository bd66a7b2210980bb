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

:func:`transition_amplitude` and sectors of up to 2 photons take that
permanent per pattern. From 3 photons on, :func:`_sector` adds the photons
one at a time and gets every pattern's amplitude without a factorial.
"""
from __future__ import annotations

import functools
import math
from itertools import chain, combinations_with_replacement, product as iproduct

import numpy as np

from .errors import CapacityError, NumericalError, int_text
from .fock import FockState, Product, SuperposedState
from .linalg import PHOTON_CAP, UNITARITY_TOL, outer, permanent, square, verify_unitary

# Exact-enumeration limits; see CapacityError.
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


# Level tables of more entries than this, k * C(n + k - 1, k), are built per call, not cached:
# 24 photons over 7 ports would hold 221 MiB after the call.
_LEVELS_CACHE_ENTRIES = 10**5


def _levels(n: int, k: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray]:
    """The tables of :func:`_level_tables`, cached if at most ``_LEVELS_CACHE_ENTRIES`` entries."""
    if k * math.comb(n + k - 1, k) > _LEVELS_CACHE_ENTRIES:
        return _level_tables(n, k)
    return _cached_level_tables(n, k)


def _level_tables(n: int, k: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray]:
    """Per level l < k, for each pattern m of l photons and port r: the row of m + e_r at
    level l + 1 and sqrt(m_r + 1); then the int8 rows of level k. Rows ascend at every level.
    """
    # In ascending order, rank(m) = sum over p of N(n - p, S_p) - N(n - p, S_p - m_p), where S_p
    # counts the photons at ports >= p and N(a, s) = C(a + s - 1, s). m + e_r raises S_p for
    # p <= r, so by Pascal's rule its rank is rank(m) + sum_{p<r} (up_p - down_p) + up_r, with
    # up_p = after[p, S_p], down_p = after[p, S_p - m_p] and after[p, s] = N(n - 1 - p, s + 1).
    after = np.array([[math.comb(n - 1 - p + s, s + 1) for s in range(k)] for p in range(n)],
                     dtype=np.intp)
    rows, levels, ports = np.zeros((1, n), np.int8), [], np.arange(n)
    for level in range(k):
        tail = np.cumsum(rows[:, ::-1], axis=1, dtype=np.intp)[:, ::-1]
        up, down = after[ports, tail], after[ports, tail - rows]
        nxt = np.arange(len(rows))[:, None] + np.cumsum(up - down, axis=1) + down
        levels.append((nxt, np.sqrt(rows + 1.0)))
        # Each row of level + 1 once: m + e_r where m has no photon before port r.
        i, r = np.nonzero(tail == level)
        grown = rows[i]
        grown[np.arange(len(i)), r] += 1
        rows = grown[np.argsort(nxt[i, r])]
    for a in (rows, *chain.from_iterable(levels)):
        a.flags.writeable = False  # shared through the cache
    return tuple(levels), rows


_cached_level_tables = functools.lru_cache(maxsize=16)(_level_tables)


def _sector(u: np.ndarray, occ_in: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | list]:
    """Every output pattern of one polarization's photons, and <occ_out|U|occ_in> for each.

    Returns the int8 occupation table, one row per pattern in ascending
    order (``PHOTON_CAP`` keeps counts at most 24), and the amplitudes.
    From 3 photons on, the photons enter one at a time: one from column c
    sends m to m + e_r with the factor U[r, c] * sqrt(m_r + 1) / sqrt(j) for
    the j-th photon of that column, and each level adds its terms with
    ``np.bincount`` in row-major (m, r) order.
    """
    n, k = len(occ_in), sum(occ_in)
    if k >= 3:
        levels, occs = _levels(n, k)
        amps = np.ones(1, dtype=complex)
        photons = [(c, j) for c in range(n) for j in range(1, occ_in[c] + 1)]
        for (nxt, roots), (c, j) in zip(levels, photons):
            terms, weights = outer(amps, u[:, c]), roots / math.sqrt(j)
            parts = [np.bincount(nxt.ravel(), (part * weights).ravel())
                     for part in (terms.real, terms.imag)]
            amps = np.stack(parts, axis=1).view(complex)[:, 0]
        return occs, amps
    count = math.comb(n + k - 1, k)
    # Each pattern is the sorted list of its photons' ports, which is also the row list of its
    # permanent; they come in descending occupation order, so reversed they ascend.
    ports = np.fromiter(chain.from_iterable(combinations_with_replacement(range(n), k)),
                        np.intp, count * k).reshape(count, k)[::-1]
    occs, rows = np.zeros((count, n), np.int8), np.arange(count)
    for col in ports.T:
        occs[rows, col] += 1
    if not k:
        return occs, [1.0 + 0.0j]
    cols = u[:, np.arange(n).repeat(occ_in)]
    in_norm = math.prod(map(math.factorial, occ_in))
    # prod(count!) of a pattern of k <= 2 photons: k! if they share a port, else 1.
    out_norms = np.where(ports[:, 0] == ports[:, -1], math.factorial(k), 1).tolist()
    return occs, [permanent(cols.take(rows, axis=0)) / math.sqrt(in_norm * out_norm)
                  for rows, out_norm in zip(ports, out_norms)]


def _require_compatible(u: np.ndarray, *states: FockState) -> np.ndarray:
    u = square(u)
    for state in states:
        if u.shape[0] != state.n_ports:
            raise ValueError(
                f"matrix is {u.shape[0]}x{u.shape[0]} but state has {int_text(state.n_ports)} ports"
            )
    return u


def transition_amplitude(u: np.ndarray, input_state: FockState,
                         output_state: FockState) -> complex:
    """Exact amplitude <output|U|input>; zero unless photon counts match per polarization."""
    u = _require_compatible(u, input_state, output_state)
    if input_state.photons_per_pol() != output_state.photons_per_pol():
        return 0.0 + 0.0j
    # Before any index list or submatrix.
    if (k := max(sum(input_state.h), sum(input_state.v))) > PHOTON_CAP:
        raise CapacityError(f"{int_text(k)} photons of one polarization, "
                            f"over the {PHOTON_CAP}-photon cap")
    ports = np.arange(input_state.n_ports)

    def sector(occ_in: tuple[int, ...], occ_out: tuple[int, ...]) -> complex:
        if not sum(occ_in):
            return 1.0 + 0.0j
        norm = math.prod(map(math.factorial, occ_in + occ_out))
        return permanent(u[np.ix_(ports.repeat(occ_out), ports.repeat(occ_in))]) / math.sqrt(norm)

    return sector(input_state.h, output_state.h) * sector(input_state.v, output_state.v)


def require_capacity(state: FockState) -> None:
    """CapacityError past ``PHOTON_CAP`` photons of one polarization, then ``PATTERN_CAP`` terms."""
    n, k_h, k_v = state.n_ports, sum(state.h), sum(state.v)
    photons = f"{int_text(k_h)} H and {int_text(k_v)} V photons over {n} ports"
    if max(k_h, k_v) > PHOTON_CAP:
        raise CapacityError(f"{photons}: over the {PHOTON_CAP}-photon cap per polarization")
    terms = math.comb(n + k_h - 1, k_h) * math.comb(n + k_v - 1, k_v)
    if terms > PATTERN_CAP:
        raise CapacityError(f"{photons} give {terms} output terms, "
                            f"over the {PATTERN_CAP} output-term cap")


def evolve(u: np.ndarray, input_state: FockState) -> SuperposedState:
    """Full output superposition of ``input_state`` through the coupler ``u``.

    Enumerates every output occupation pattern with the input's photon number
    per polarization; terms appear in lexicographic occupation order, H sector
    major. Past either cap of :func:`require_capacity`: CapacityError.
    """
    u = _require_compatible(u, input_state)
    require_capacity(input_state)
    # After the caps: they are integer arithmetic, this is an n x n matmul.
    if not verify_unitary(u):
        raise NumericalError(f"matrix not unitary within {UNITARITY_TOL}")
    return SuperposedState(Product(_sector(u, input_state.h), _sector(u, input_state.v)), len(u))


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
