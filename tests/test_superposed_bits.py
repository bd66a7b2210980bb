"""The array-backed ``SuperposedState`` against a dict-based reference, bit for bit.

``evolve`` builds its output as an occupation table and an amplitude
vector, and ``postselect`` selects rows of it with a mask. The references
below are the dict-based assembly and post-selection that the table
replaced: one ``FockState`` per term in a dict, amplitudes multiplied as
Python complex numbers, pruned with ``abs`` and added to ``0.0``, then sorted.
Every amplitude, probability, fidelity and norm must carry the same bits.
"""
import cmath
import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from wstategen.evolve import _sector_amplitudes, evolve
from wstategen.fock import (
    AMPLITUDE_PRUNE_TOL,
    FockState,
    Product,
    SuperposedState,
    w_state_path,
    w_state_polarization,
)
from wstategen.linalg import canonical_quarter, dft_multiport
from wstategen.postselect import ZERO_PROBABILITY_TOL, CoincidencePattern, fidelity, postselect


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


def _reference_evolve(u: np.ndarray, state: FockState) -> dict:
    n = state.n_ports
    per_pol = []
    for occ_in in (state.h, state.v):
        patterns = list(combinations_with_replacement(range(n), sum(occ_in)))
        occs = [tuple(ports.count(p) for p in range(n)) for ports in patterns]
        per_pol.append(list(zip(occs, _sector_amplitudes(u, occ_in, patterns))))
    return _reference_terms(((FockState(n, occ_h, occ_v), amp_h * amp_v)
                             for (occ_h, amp_h), (occ_v, amp_v) in product(*per_pol)), n)


def _matches(state: FockState, pattern: CoincidencePattern) -> bool:
    spatial = tuple(ch + cv for ch, cv in zip(state.h, state.v))
    if pattern.required is None:
        return spatial == (1,) * state.n_ports
    return all(spatial[port] == count for port, count in pattern.required)


def _reference_postselect(terms: dict, n_ports: int, pattern: CoincidencePattern):
    """(conditional terms, probability, kept terms, dropped probability)."""
    kept = {s: a for s, a in terms.items() if _matches(s, pattern)}
    probability = sum(abs(a) ** 2 for a in kept.values())
    if probability < ZERO_PROBABILITY_TOL:
        return {}, 0.0, 0, 1.0
    scale = 1.0 / math.sqrt(probability)
    conditional = _reference_terms(((s, a * scale) for s, a in kept.items()), n_ports)
    return conditional, probability, len(kept), 1.0 - probability


def _reference_fidelity(terms: dict, target: dict) -> float:
    overlap = sum(target.get(s, 0.0 + 0.0j).conjugate() * a for s, a in terms.items())
    return min(abs(overlap) ** 2, 1.0)


def _reference_norm_sq(terms: dict) -> float:
    return sum(abs(a) ** 2 for a in terms.values())


def _bits(z: complex) -> tuple[str, str]:
    return float.hex(z.real), float.hex(z.imag)


def _hex(x: float) -> tuple[type, str]:
    """The type and bits of a sum, which is the int 0 when it has no terms."""
    return type(x), float.hex(float(x))


def _assert_same(state: SuperposedState, terms: dict) -> None:
    listed = list(state)
    assert [s for s, _ in listed] == list(terms)
    assert [_bits(a) for _, a in listed] == [_bits(a) for a in terms.values()]
    assert all(type(s) is FockState and type(a) is complex for s, a in listed)
    assert len(state) == len(terms)
    assert _hex(state.norm_sq()) == _hex(_reference_norm_sq(terms))


def _haar(n: int, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    z = rng.normal(size=(n, n))
    if not real:
        z = z + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).astype(complex)


def _couplers(n: int) -> dict:
    """Seeded Haar couplers, complex and real (whose amplitudes carry signed zeros), and DFT_n."""
    rng = np.random.default_rng(4100 + n)
    couplers = {"haar": _haar(n, rng), "haar-real": _haar(n, rng, real=True)}
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
        per_pol = [list(_sector_amplitudes(
            u, occ_in, combinations_with_replacement(range(n), sum(occ_in))))
            for occ_in in (state.h, state.v)]
        products = [a * b for a, b in product(*per_pol)]
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
    built = SuperposedState(Product((h_rows, h_amps), (v_rows, v_amps)), n,
                            require_normalized=False)
    reference = _reference_terms(((FockState(n, h, v), a * b) for h, a in zip(h_rows, h_amps)
                                  for v, b in zip(v_rows, v_amps)), n)
    assert 0 < len(reference) < len(h_rows) * len(v_rows)
    _assert_same(built, reference)
