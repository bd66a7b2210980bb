"""The array-backed ``SuperposedState`` against a dict-based reference, bit for bit.

``evolve`` builds its output as an occupation table and an amplitude
vector, and ``postselect`` selects rows of it with a mask. The references
below are the dict-based assembly and post-selection that the table
replaced: one ``FockState`` per term in a dict, amplitudes multiplied as
Python complex numbers, pruned with ``abs`` and added to ``0.0``, then sorted.
The amplitudes of a sector come from a pure-Python copy of ``evolve``'s
kernel: per pattern up to 2 photons, one photon at a time from 3 on.
Each |amp|^2 is the exact square of ``abs(amp)`` rounded once, by ``Fraction``.
Every amplitude, probability, fidelity and norm must carry the same bits.
"""
import cmath
import functools
import math
import operator
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from wstategen.evolve import evolve
from wstategen.fock import (
    AMPLITUDE_PRUNE_TOL,
    FockState,
    SuperposedState,
    Table,
    w_state_path,
    w_state_polarization,
)
from wstategen.linalg import canonical_quarter, dft_multiport, outer, permanent
from wstategen.postselect import ZERO_PROBABILITY_TOL, CoincidencePattern, fidelity, postselect
from support import random_unitary


def _reference_terms(terms, n_ports: int) -> dict:
    """The dict-based ``SuperposedState`` assembly: prune, add in input order, sort."""
    kept = {}
    for state, amp in terms:
        amp = complex(amp)
        assert cmath.isfinite(amp)
        if abs(amp) < AMPLITUDE_PRUNE_TOL:
            continue
        assert state.n_ports == n_ports
        kept[state] = kept.get(state, 0.0) + amp
    return dict(sorted(kept.items()))


def _reference_amplitude(u: np.ndarray, occ_in: tuple, occ_out: tuple) -> complex:
    """<occ_out|U|occ_in> for one polarization: the per-pattern permanent and factorial norm."""
    if not sum(occ_in):
        return 1.0 + 0.0j
    rows = [p for p, c in enumerate(occ_out) for _ in range(c)]
    cols = [p for p, c in enumerate(occ_in) for _ in range(c)]
    in_norm = math.prod(math.factorial(c) for c in occ_in)
    out_norm = math.prod(math.factorial(c) for c in occ_out)
    return permanent(u[np.ix_(rows, cols)]) / math.sqrt(in_norm * out_norm)


def _reference_sector(u: np.ndarray, occ_in: tuple) -> list:
    """(occupation, <occ|U|occ_in>) of every output pattern of one polarization, ascending.

    Up to 2 photons, :func:`_reference_amplitude` per pattern. From 3 on, the
    photons enter one at a time: the j-th photon of column c sends m to
    m + e_r with Python's complex ``amp * u[r, c]``, whose parts are then scaled
    by sqrt(m_r + 1) / sqrt(j); each pattern adds its terms left to right from
    0.0, in ascending order of m, then of r.
    """
    n = len(occ_in)
    if sum(occ_in) <= 2:
        occs = sorted(tuple(ports.count(p) for p in range(n))
                      for ports in combinations_with_replacement(range(n), sum(occ_in)))
        return [(occ, _reference_amplitude(u, occ_in, occ)) for occ in occs]
    level = {(0,) * n: 1.0 + 0.0j}
    for c, j in [(c, j) for c in range(n) for j in range(1, occ_in[c] + 1)]:
        sums = {}
        for m, amp in sorted(level.items()):
            for r in range(n):
                z, w = amp * complex(u[r, c]), math.sqrt(m[r] + 1) / math.sqrt(j)
                grown = m[:r] + (m[r] + 1,) + m[r + 1:]
                re, im = sums.get(grown, (0.0, 0.0))
                sums[grown] = (re + z.real * w, im + z.imag * w)
        level = {m: complex(re, im) for m, (re, im) in sums.items()}
    return sorted(level.items())


def _reference_sectors(u: np.ndarray, state: FockState) -> list:
    """(occupation, amplitude) of every output pattern, per polarization."""
    return [_reference_sector(u, occ_in) for occ_in in (state.h, state.v)]


def _reference_evolve(u: np.ndarray, state: FockState) -> dict:
    n = state.n_ports
    return _reference_terms(((FockState(n, occ_h, occ_v), amp_h * amp_v)
                             for (occ_h, amp_h), (occ_v, amp_v)
                             in product(*_reference_sectors(u, state))), n)


def _square(a: complex) -> float:
    """``abs(a)`` squared exactly, then rounded to the nearest double."""
    return float(Fraction(abs(a)) ** 2)


def _matches(state: FockState, pattern: CoincidencePattern) -> bool:
    spatial = tuple(ch + cv for ch, cv in zip(state.h, state.v))
    if pattern.required is None:
        return spatial == (1,) * state.n_ports
    return all(spatial[port] == count for port, count in pattern.required)


def _reference_postselect(terms: dict, n_ports: int, pattern: CoincidencePattern):
    """(conditional terms, probability, kept terms, dropped probability)."""
    kept = {s: a for s, a in terms.items() if _matches(s, pattern)}
    # Left to right, as the 3.10/3.11 builtin sum() added them; from 3.12 on sum() compensates.
    probability = functools.reduce(operator.add, map(_square, kept.values()), 0.0)
    if probability < ZERO_PROBABILITY_TOL:
        return {}, 0.0, 0, 1.0
    scale = 1.0 / math.sqrt(probability)
    conditional = _reference_terms(((s, a * scale) for s, a in kept.items()), n_ports)
    return conditional, probability, len(kept), 1.0 - probability


def _reference_fidelity(terms: dict, target: dict) -> float:
    overlap = functools.reduce(
        operator.add, (target.get(s, 0.0 + 0.0j).conjugate() * a for s, a in terms.items()), 0j)
    return min(_square(overlap), 1.0)


def _reference_norm_sq(terms: dict) -> float:
    return functools.reduce(operator.add, map(_square, terms.values()), 0.0)


def _bits(z: complex) -> tuple[str, str]:
    return float.hex(z.real), float.hex(z.imag)


def _hex(x: float) -> tuple[type, str]:
    """The type and bits of a sum, which is the float 0.0 when it has no terms."""
    return type(x), float.hex(x)


def _assert_same(state: SuperposedState, terms: dict) -> None:
    listed = list(state)
    assert [s for s, _ in listed] == list(terms)
    assert [_bits(a) for _, a in listed] == [_bits(a) for a in terms.values()]
    assert all(type(s) is FockState and type(a) is complex for s, a in listed)
    assert len(state) == len(terms)
    assert _hex(state.norm_sq()) == _hex(_reference_norm_sq(terms))


def _couplers(n: int) -> dict:
    """Seeded Haar couplers, complex and real (whose amplitudes carry signed zeros), and DFT_n."""
    rng = np.random.default_rng(4100 + n)
    couplers = {"haar": random_unitary(n, rng), "haar-real": random_unitary(n, rng, real=True)}
    if n >= 2:
        couplers["dft"] = dft_multiport(n)
    if n == 4:
        couplers["quarter"] = canonical_quarter()
    return couplers


def _inputs(n: int) -> dict:
    """Vacuum, single-photon, bunched and suppressed (one photon per port) inputs on n ports.

    The bunched input has n photons, so its one-per-port branch is long.
    """
    zero = (0,) * n

    def at(counts: dict) -> tuple:
        return tuple(counts.get(p, 0) for p in range(n))

    def bunched(k: int, ports) -> dict:
        """k photons: two in the first of ``ports``, one in each next one."""
        ports = list(ports)
        return {ports[0]: min(k, 2), **{p: 1 for p in ports[1:k - 1]}} if k else {}

    inputs = {
        "vacuum": FockState(n, zero, zero),
        "one-h": FockState(n, at({0: 1}), zero),
        "one-v": FockState(n, zero, at({n - 1: 1})),
        "bunched": FockState(n, at(bunched((n + 1) // 2, range(n))),
                             at(bunched(n // 2, range(n - 1, -1, -1)))),
        "one-per-port-h": FockState(n, (1,) * n, zero),
    }
    if n >= 2:
        inputs["scheme2"] = FockState(n, at({p: 1 for p in range(n - 1)}), at({n - 1: 1}))
    return inputs


CASES = [(n, coupler, name) for n in range(1, 8) for coupler in _couplers(n)
         for name in _inputs(n)]


def _patterns(n: int) -> list[CoincidencePattern]:
    return [CoincidencePattern.one_per_port(), CoincidencePattern.port_counts({0: 1}),
            CoincidencePattern.port_counts({n - 1: 2, 0: 0}), CoincidencePattern.port_counts({})]


@pytest.mark.parametrize("n,coupler,name", CASES)
def test_evolve_postselect_fidelity_bits(n, coupler, name):
    u = _couplers(n)[coupler]
    state = _inputs(n)[name]
    out = evolve(u, state)
    reference = _reference_evolve(u, state)
    _assert_same(out, reference)
    assert out == SuperposedState(reference, n, require_normalized=False)
    for pattern in _patterns(n):
        result = postselect(out, pattern)
        conditional, probability, kept, dropped = _reference_postselect(reference, n, pattern)
        _assert_same(result.conditional, conditional)
        assert _hex(result.probability) == _hex(probability)
        assert _hex(result.dropped_probability) == _hex(dropped)
        assert result.kept_terms == kept
    targets = {"self": out, "path-w": w_state_path(n) if n >= 2 else out,
               "polarization-w": w_state_polarization(n) if n >= 2 else out}
    for target in targets.values():
        expected = _reference_fidelity(reference, dict(target))
        assert _hex(fidelity(out, target)) == _hex(expected)
        conditional = postselect(out, CoincidencePattern.one_per_port()).conditional
        expected = _reference_fidelity(dict(conditional), dict(target))
        assert _hex(fidelity(conditional, target)) == _hex(expected)


def test_cases_cover_pruning_signed_zeros_and_long_sums():
    """The seeded cases prune terms, multiply out -0.0 parts and post-select long sums."""
    pruned = signed_zero = long_kept = 0
    for n, coupler, name in CASES:
        u, state = _couplers(n)[coupler], _inputs(n)[name]
        products = [a * b for (_, a), (_, b) in product(*_reference_sectors(u, state))]
        pruned += len(evolve(u, state)) < len(products)
        signed_zero += any(math.copysign(1.0, x) < 0 for z in products for x in (z.real, z.imag)
                           if x == 0.0)
        kept = postselect(evolve(u, state), CoincidencePattern.one_per_port()).kept_terms
        long_kept += kept >= 16
    assert pruned >= 5 and signed_zero >= 5 and long_kept >= 5


def _boundary_amplitudes(count: int, seed: int) -> list[complex]:
    """Amplitudes at the prune tolerance, at seeded angles: about a third are just below it."""
    angles = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, count)
    return [complex(AMPLITUDE_PRUNE_TOL * math.cos(t), AMPLITUDE_PRUNE_TOL * math.sin(t))
            for t in angles.tolist()]


@pytest.mark.parametrize("seed", [4200, 4201])
def test_prune_at_the_tolerance_matches_abs(seed):
    """A term is dropped exactly when Python's ``abs`` of its amplitude is below the tolerance."""
    n = 4
    h_rows = sorted(tuple(ports.count(p) for p in range(n))
                    for ports in combinations_with_replacement(range(n), 3))
    h_amps = _boundary_amplitudes(len(h_rows), seed)
    v_rows = [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)]
    v_amps = [1.0 + 0.0j, complex(-1.0, -0.0), complex(0.5, -0.0)]
    rows = [h + v for h in h_rows for v in v_rows]
    built = SuperposedState(Table(rows, outer(h_amps, v_amps).ravel()), n,
                            require_normalized=False)
    reference = _reference_terms(((FockState(n, h, v), a * b) for h, a in zip(h_rows, h_amps)
                                  for v, b in zip(v_rows, v_amps)), n)
    assert 0 < len(reference) < len(h_rows) * len(v_rows)
    _assert_same(built, reference)
