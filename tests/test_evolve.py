import cmath
import importlib
import math
import struct
import tracemalloc
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from wstategen.errors import CapacityError, NumericalError
from wstategen.evolve import (
    _sector,
    evolve,
    lift_to_modes,
    oracle_evolve,
    require_capacity,
    transition_amplitude,
)
from wstategen.fock import (
    FockState,
    Mode,
    Polarization,
    SuperposedState,
    product_input,
    single_photon_state,
)
from wstategen.linalg import dft_multiport, permanent, permanent_naive, verify_unitary
from wstategen.schemes import run_polarization_w, scheme2_input
from support import random_unitary
from test_superposed_bits import _reference_sector

evolve_module = importlib.import_module("wstategen.evolve")
linalg_module = importlib.import_module("wstategen.linalg")

H, V = Polarization.H, Polarization.V
OMEGA = cmath.exp(2j * math.pi / 3)

H25 = FockState(2, (25, 0), (0, 0))
CAP_REFUSALS = {
    "evolve": lambda: evolve(dft_multiport(2), H25),
    "require_capacity": lambda: require_capacity(H25),
    "run_polarization_w": lambda: run_polarization_w(26),
    "transition_amplitude": lambda: transition_amplitude(dft_multiport(2), H25, H25),
    "mapping": lambda: SuperposedState({H25: 1.0}, 2),
    "list": lambda: SuperposedState([(H25, 1.0)], 2),
    "from_json_obj": lambda: SuperposedState.from_json_obj(
        {"nPorts": 2, "terms": [{"state": H25.to_json_obj(), "amp": [1.0, 0.0]}]}),
}


def all_fock_states(n_ports, max_photons):
    modes = [Mode(p, pol) for p in range(n_ports) for pol in (H, V)]
    for k in range(max_photons + 1):
        for combo in combinations_with_replacement(modes, k):
            counts = {}
            for m in combo:
                counts[m] = counts.get(m, 0) + 1
            yield FockState.from_counts(counts, n_ports)


def _occupation_vectors(n_ports, n_photons):
    """All length-n occupation vectors summing to n_photons, lexicographic order."""
    if n_ports == 1:
        yield (n_photons,)
        return
    for first in range(n_photons + 1):
        for rest in _occupation_vectors(n_ports - 1, n_photons - first):
            yield (first,) + rest


def _single_pol_amplitude(u, occ_in, occ_out):
    """The per-pattern amplitude ``evolve`` computed before its sector enumerator.

    Kept as a bit-level reference: repeated row and column lists, an
    ``np.ix_`` submatrix and one factorial norm per pattern.
    """
    if sum(occ_in) == 0:
        return 1.0 + 0.0j
    rows = [p for p, c in enumerate(occ_out) for _ in range(c)]
    cols = [p for p, c in enumerate(occ_in) for _ in range(c)]
    in_norm = math.prod(math.factorial(c) for c in occ_in)
    out_norm = math.prod(math.factorial(c) for c in occ_out)
    return permanent(u[np.ix_(rows, cols)]) / math.sqrt(in_norm * out_norm)


def _bits(z):
    return struct.pack("dd", z.real, z.imag)


def _pattern_sector(u, occ_in):
    """(occupation, amplitude) of every output pattern of one polarization, by the glue above."""
    return [(occ, _single_pol_amplitude(u, occ_in, occ))
            for occ in _occupation_vectors(len(occ_in), sum(occ_in))]


def _reference_pairs(u, state, sector=_pattern_sector):
    """(output state, amplitude) for every H x V pattern pair, zeros included."""
    n = state.n_ports
    per_pol = [sector(u, occ_in) for occ_in in (state.h, state.v)]
    return [(FockState(n, occ_h, occ_v), amp_h * amp_v)
            for (occ_h, amp_h), (occ_v, amp_v) in product(*per_pol)]


def _bit_identity_cases():
    """Seeded couplers and inputs: n = 1..6, 0..5 photons per sector, bunched and vacuum."""
    rng = np.random.default_rng(2024)
    sector_counts = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2), (3, 1), (4, 1),
                     (5, 0), (0, 5)]
    for n in range(1, 7):
        couplers = [random_unitary(n, rng)] + ([dft_multiport(n)] if n >= 2 else [])
        for u, (k_h, k_v) in product(couplers, sector_counts + [(5, 5)] * (n <= 3)):
            spread = [(int(p), H) for p in rng.integers(0, n, k_h)]
            spread += [(int(p), V) for p in rng.integers(0, n, k_v)]
            port = int(rng.integers(0, n))
            bunched = [(port, H)] * k_h + [(n - 1 - port, V)] * k_v
            for photons in (spread, bunched):
                yield u, product_input(photons, n)


class TestLiftToModes:
    def test_identity(self):
        assert np.array_equal(lift_to_modes(np.eye(2)), np.eye(4))

    def test_block_structure(self):
        u = dft_multiport(3)
        lifted = lift_to_modes(u)
        assert lifted.shape == (6, 6)
        assert np.array_equal(lifted[:3, :3], u)
        assert np.array_equal(lifted[3:, 3:], u)
        assert np.all(lifted[:3, 3:] == 0)
        assert np.all(lifted[3:, :3] == 0)

    def test_lifted_unitary(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            assert verify_unitary(lift_to_modes(random_unitary(n, rng)))


class TestTransitionAmplitude:
    def test_single_photon_reduces_to_matrix_entry(self):
        u = dft_multiport(3)
        a = transition_amplitude(
            u, single_photon_state(0, H, 3), single_photon_state(1, H, 3)
        )
        assert a == u[1, 0]
        assert abs(a - 1 / math.sqrt(3)) <= 1e-15

    def test_polarization_mismatch_is_zero(self):
        u = dft_multiport(3)
        a = transition_amplitude(
            u, product_input([(0, H), (1, V)], 3), product_input([(0, H), (1, H)], 3)
        )
        assert a == 0

    def test_scheme2_diagonal_branch(self):
        # H0 H1 V2 -> H0 H1 V2: frozen against the naive permanent oracle
        u = dft_multiport(3)
        state = product_input([(0, H), (1, H), (2, V)], 3)
        a = transition_amplitude(u, state, state)
        assert abs(a - (-1 / (3 * math.sqrt(3)))) <= 1e-12

    def test_bit_identical_to_per_pattern_glue(self):
        # Every pattern pair, pruned ones included, against the old glue.
        for u, state in _bit_identity_cases():
            for out_state, amp in _reference_pairs(u, state):
                assert transition_amplitude(u, state, out_state) == amp, (state, out_state)

    def test_port_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"^matrix is 3x3 but state has 2 ports$"):
            transition_amplitude(
                dft_multiport(3),
                single_photon_state(0, H, 3),
                single_photon_state(0, H, 2),
            )
        with pytest.raises(ValueError, match=r"^matrix is 3x3 but state has 4 ports$"):
            transition_amplitude(
                dft_multiport(3),
                single_photon_state(0, H, 3),
                single_photon_state(0, H, 4),
            )


class TestEvolve:
    def test_single_photon_gives_path_w(self):
        out = evolve(dft_multiport(3), single_photon_state(0, H, 3))
        assert len(out) == 3
        for p in range(3):
            amp = out.amplitude(single_photon_state(p, H, 3))
            assert abs(amp - 1 / math.sqrt(3)) <= 1e-12

    def test_identity_echoes_input(self):
        state = product_input([(0, H), (1, V), (1, V)], 3)
        out = evolve(np.eye(3), state)
        assert len(out) == 1
        assert abs(out.amplitude(state) - 1.0) <= 1e-12

    def test_scheme2_term_count(self):
        # 6 two-photon H patterns x 3 one-photon V patterns, all nonzero
        # (count frozen from the brute-force oracle)
        out = evolve(dft_multiport(3), product_input([(0, H), (1, H), (2, V)], 3))
        assert len(out) == 18

    def test_single_photon_reproduces_lifted_column(self):
        rng = np.random.default_rng(11)
        u = random_unitary(4, rng)
        lifted = lift_to_modes(u)
        for port, pol, offset in [(0, H, 0), (2, V, 4)]:
            out = evolve(u, single_photon_state(port, pol, 4))
            for q in range(4):
                for qpol, qoff in [(H, 0), (V, 4)]:
                    amp = out.amplitude(single_photon_state(q, qpol, 4))
                    assert abs(amp - lifted[q + qoff, port + offset]) <= 1e-12

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            u = random_unitary(n, rng)
            k = int(rng.integers(1, 5))
            photons = [
                (int(rng.integers(0, n)), H if rng.random() < 0.5 else V)
                for _ in range(k)
            ]
            out = evolve(u, product_input(photons, n))
            assert abs(out.norm_sq() - 1.0) <= 1e-9

    def test_per_polarization_photon_conservation(self):
        u = dft_multiport(3)
        state = product_input([(0, H), (0, H), (1, V), (2, V)], 3)
        out = evolve(u, state)
        for s, _ in out:
            assert s.photons_per_pol() == {H: 2, V: 2}

    def test_hong_ou_mandel_has_no_split_term(self):
        pair = product_input([(0, H), (1, H)], 2)
        out = evolve(dft_multiport(2), pair)
        assert pair not in out.terms
        assert [s for s, _ in out] == [FockState(2, (0, 2), (0, 0)), FockState(2, (2, 0), (0, 0))]

    def test_exchange_symmetry(self):
        u = dft_multiport(3)
        photons = [(0, H), (1, H), (2, V)]
        reference = evolve(u, product_input(photons, 3))
        for perm in permutations(photons):
            assert evolve(u, product_input(list(perm), 3)) == reference

    def test_thirteen_photons_on_beam_splitter(self):
        # 14 patterns of 13 photons, under both caps. The photon-by-photon kernel adds only
        # terms of one sign here, so the amplitudes carry round-off up to 7.3e-16 and the
        # norm 2.9e-15. Ryser's alternating sum over the repeated column cancelled from
        # about 1e14 down to 6.9e7 and left 4.4e-11 and 1.9e-10.
        out = evolve(dft_multiport(2), product_input([(0, H)] * 13, 2))
        assert len(out) == 14
        assert abs(out.norm_sq() - 1) <= 4e-15
        for state, amp in out:
            j = state.h[0]
            assert abs(amp - math.sqrt(math.comb(13, j)) / 2 ** 6.5) <= 1e-15, j

    @pytest.mark.parametrize("k", [16, 19])
    def test_bunched_photons_past_ryser_digits_on_beam_splitter(self, k):
        # Both caps pass these; Ryser's sums missed the 1e-9 normalization tolerance
        # (sum |amp|^2 = 0.99999998550 at 16, 1.00000039 at 19) and raised NumericalError.
        out = evolve(dft_multiport(2), product_input([(0, H)] * k, 2))
        assert len(out) == k + 1
        assert abs(out.norm_sq() - 1) <= 4e-15
        for state, amp in out:
            j = state.h[0]
            assert abs(amp - math.sqrt(math.comb(k, j)) / 2 ** (k / 2)) <= 1e-15, j

    def test_bit_identical_to_per_pattern_glue(self):
        # The glue's bits up to 2 photons per sector; from 3 on, those of the pure-Python
        # copy of the photon-by-photon kernel.
        for u, state in _bit_identity_cases():
            reference = SuperposedState(
                {s: a for s, a in _reference_pairs(u, state, _reference_sector) if a != 0},
                state.n_ports)
            out = evolve(u, state)
            assert out.terms == reference.terms, state
            # `transition_amplitude` keeps its own permanent, which rounds otherwise from
            # 3 photons on: 6.1e-15 apart at most on these cases.
            tol = 0 if max(sum(state.h), sum(state.v)) <= 2 else 1e-13
            for out_state, amp in out:
                assert abs(transition_amplitude(u, state, out_state) - amp) <= tol, (state,
                                                                                   out_state)

    def test_bit_identical_on_polar_w_8(self):
        # polar-w n=8: 3,432 H patterns of 7 photons, sampled across the sector.
        n = 8
        u, state = dft_multiport(n), scheme2_input(n)
        out = evolve(u, state)
        sector_h = _reference_sector(u, state.h)
        assert len(sector_h) == 3432 and len(out) == 3432 * n
        for i in (0, 1023, 1024, 2047, 2048, len(sector_h) - 1):
            occ_h, amp_h = sector_h[i]
            for q in range(n):
                occ_v = tuple(int(p == q) for p in range(n))
                # A state adds each amplitude to 0.0, which turns -0.0 parts into 0.0.
                expected = 0.0 + amp_h * _single_pol_amplitude(u, state.v, occ_v)
                got = out.amplitude(FockState(n, occ_h, occ_v))
                assert _bits(got) == _bits(expected), (i, q)

    def test_sector_matches_per_pattern_glue_on_bunched_input(self):
        # Six photons over 8 ports: 1,716 patterns, bunched and single-photon ports.
        u, occ_in = random_unitary(8, np.random.default_rng(31)), (1, 1, 1, 0, 2, 0, 1, 0)
        occs, amps = _sector(u, occ_in)
        expected = _reference_sector(u, occ_in)
        assert len(expected) == 1716 and occs.dtype == np.int8
        assert list(map(tuple, occs.tolist())) == [occ for occ, _ in expected]
        assert list(map(_bits, amps)) == [_bits(amp) for _, amp in expected]

    def test_two_photon_table_is_counted_in_int8(self):
        # 8,256 patterns of 2 photons over 128 ports: a 1 MiB int8 table, which an int64
        # count would make 8 MiB on the way.
        u, occ_in = dft_multiport(128), (1, 1) + (0,) * 126
        tracemalloc.start()
        try:
            occs, _ = _sector(u, occ_in)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert occs.dtype == np.int8 and occs.shape == (8256, 128)
        assert occs.sum(axis=1).tolist() == [2] * 8256
        assert peak < 2 * occs.nbytes

    @pytest.mark.parametrize("n, k", [(2, 10), (3, 9), (4, 6), (5, 8), (6, 5), (8, 6), (8, 10)])
    def test_sector_matches_ryser_and_naive_on_bunched_inputs(self, n, k):
        # k photons on the first half of the ports of a seeded Haar coupler, so most input
        # ports hold two or more; a seeded sample of the output patterns is checked. Ryser's
        # alternating sum loses digits on such inputs (4.4e-12 at n=2, k=10 against a
        # 30-digit reference, where this kernel is off by 1.6e-16), so it gets 1e-10.
        rng = np.random.default_rng(7000 + 100 * n + k)
        u = random_unitary(n, rng)
        occ_in = tuple(np.bincount(rng.integers(0, max(n // 2, 1), k), minlength=n).tolist())
        assert max(occ_in) >= 2
        occs, amps = _sector(u, occ_in)
        assert len(amps) == math.comb(n + k - 1, k)
        cols = np.arange(n).repeat(occ_in)
        for i in rng.choice(len(amps), min(len(amps), 120), replace=False).tolist():
            occ = tuple(occs[i].tolist())
            assert abs(amps[i] - _single_pol_amplitude(u, occ_in, occ)) <= 1e-10, occ
            if k <= 6:
                norm = math.sqrt(math.prod(map(math.factorial, occ_in + occ)))
                naive = permanent_naive(u[np.ix_(np.arange(n).repeat(occ), cols)]) / norm
                assert abs(amps[i] - naive) <= 1e-12, occ

    def test_norms_past_int64_on_one_port(self):
        # 21! is over int64's 20! limit. Through [[1]] every photon's sqrt(m_r + 1) / sqrt(j)
        # is exactly 1, so `evolve` gives exactly 1; `transition_amplitude` takes the
        # Gray-code sum of the all-ones 21x21 matrix, which is off by about 1e-6.
        u, occ = np.eye(1), (21,)
        occs, amps = _sector(u, occ)
        assert occs.tolist() == [[21]] and list(map(_bits, amps)) == [_bits(1 + 0j)]
        state = FockState(1, occ, (0,))
        assert list(evolve(u, state)) == [(state, 1 + 0j)]
        expected = _single_pol_amplitude(u, occ, occ)
        assert _bits(transition_amplitude(u, state, state)) == _bits(expected * (1.0 + 0.0j))

    @pytest.mark.parametrize("occ_out", [(21, 0), (11, 10)])
    def test_norms_past_int64_on_beam_splitter(self, occ_out):
        # `transition_amplitude` takes any photon number the photon cap admits.
        u, occ_in = dft_multiport(2), (21, 0)
        expected = _single_pol_amplitude(u, occ_in, occ_out) * (1.0 + 0.0j)
        got = transition_amplitude(u, FockState(2, occ_in, (0, 0)), FockState(2, occ_out, (0, 0)))
        assert _bits(got) == _bits(expected)

    def test_output_term_cap_fails_before_any_work(self, monkeypatch):
        # 6 H + 6 V over 12 ports: 12,376 patterns per sector, 153 M output terms.
        def no_permanent(m):
            raise AssertionError("permanent called past the cap check")

        def no_verify(m):
            raise AssertionError("unitarity checked before the cap check")

        monkeypatch.setattr(evolve_module, "permanent", no_permanent)
        monkeypatch.setattr(evolve_module, "verify_unitary", no_verify)
        state = product_input([(p, H if p % 2 else V) for p in range(12)], 12)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="153165376 output terms"):
                evolve(dft_multiport(12), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_photon_cap_fails_before_any_work(self, monkeypatch):
        # 25 H photons at port 0 of DFT_2: only 26 output terms, but over the photon cap,
        # which bounds the number of levels.
        def no_permanent(m):
            raise AssertionError("permanent called past the cap check")

        def no_verify(m):
            raise AssertionError("unitarity checked before the cap check")

        def no_levels(n, k):
            raise AssertionError("level tables built past the cap check")

        monkeypatch.setattr(evolve_module, "permanent", no_permanent)
        monkeypatch.setattr(evolve_module, "verify_unitary", no_verify)
        monkeypatch.setattr(evolve_module, "_levels", no_levels)
        with pytest.raises(CapacityError, match=r"^25 H and 0 V photons over 2 ports: "
                                                r"over the 24-photon cap per polarization$"):
            evolve(dft_multiport(2), product_input([(0, H)] * 25, 2))

    def test_twelve_photons_at_one_port_of_dft_9(self):
        # 12 photons are under the photon cap: 125,970 output terms from 1.5 M level entries
        # (k * C(n + k - 1, k)), though one 12x12 Gray-code permanent per pattern would be
        # 6.2e9 multiply-adds.
        u, occ_in = dft_multiport(9), (12,) + (0,) * 8
        out = evolve(u, FockState(9, occ_in, (0,) * 9))
        assert len(out) == 125_970
        assert abs(out.norm_sq() - 1) <= 1e-12
        rng = np.random.default_rng(1209)
        for i in rng.choice(len(out), 40, replace=False).tolist():
            occ = tuple(out.occupations[i, :9].tolist())
            state = FockState(9, occ, (0,) * 9)
            expected = transition_amplitude(u, FockState(9, occ_in, (0,) * 9), state)
            assert abs(out.amplitudes[i] - expected) <= 1e-12, occ

    def test_large_level_tables_are_not_held(self):
        # 12 photons at one port of DFT_9 need 1.5 M level entries, over the cache bound:
        # cached, their tables held 24 MiB after the call (24 photons over 7 ports, 221 MiB).
        u, state = dft_multiport(9), FockState(9, (12,) + (0,) * 8, (0,) * 9)
        tracemalloc.start()
        try:
            out = evolve(u, state)
            assert len(out) == 125_970
            del out
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 5 * 2**20

    def test_scheme_level_tables_are_cached(self):
        # Polar-w n=8's H sector, 7 photons over 8 ports, has 24,024 level entries.
        run_polarization_w(8)
        hits = evolve_module._cached_level_tables.cache_info().hits
        run_polarization_w(8)
        assert evolve_module._cached_level_tables.cache_info().hits == hits + 1

    def test_photon_cap_boundary(self, monkeypatch):
        # 24 photons of one polarization pass every kernel's cap; 25 fail before any work.
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        for k in (24, 25):
            with monkeypatch.context() as m:
                # The Gray-code sums at 24 take seconds; reaching them is the point.
                m.setattr(linalg_module, "_gray_plan", reached)
                m.setattr(evolve_module, "permanent", reached)
                state = FockState(1, (k,), (0,))
                with pytest.raises(Reached if k == 24 else CapacityError):
                    permanent(np.ones((k, k)))
                with pytest.raises(Reached if k == 24 else CapacityError):
                    transition_amplitude(np.eye(1), state, state)
            if k == 24:
                assert list(evolve(np.eye(1), state)) == [(state, 1 + 0j)]
            else:
                with pytest.raises(CapacityError, match="24-photon cap"):
                    evolve(np.eye(1), state)

    @pytest.mark.parametrize("refuse", CAP_REFUSALS.values(), ids=CAP_REFUSALS.keys())
    def test_one_photon_cap_wording(self, refuse):
        """Every refusal of 25 photons of one polarization names both totals the same way."""
        with pytest.raises(CapacityError, match=r"^25 H and [01] V photons( over (2|26) ports)?: "
                                                r"over the 24-photon cap per polarization$"):
            refuse()

    @pytest.mark.parametrize("k_h, k_v", [(25, 0), (0, 25), (10**18, 0),
                                          pytest.param(10**5000, 0, id="10**5000-0")])
    def test_transition_amplitude_photon_cap_fails_before_any_work(self, monkeypatch, k_h, k_v):
        # 25 photons of one polarization are over the photon cap; the matrix must not be
        # built to find out.
        def no_permanent(m):
            raise AssertionError("permanent called past the cap check")

        monkeypatch.setattr(evolve_module, "permanent", no_permanent)
        state = FockState(1, (k_h,), (k_v,))
        with pytest.raises(CapacityError, match=r"^(over 2\*\*\d+|\d+) H and \d+ V photons: "
                                                r"over the 24-photon cap per polarization$"):
            transition_amplitude(np.eye(1), state, state)

    def test_no_huge_comb_before_the_refusal(self, monkeypatch):
        # A 4,300-digit H count at one port of 1,001: math.comb of it took 8.2 s. The photon
        # cap comes first, so no comb forms more than 24 factors.
        comb = math.comb

        def small_comb(n, k):
            if n > 2**64 or k > 24:
                raise AssertionError(f"math.comb of a {n.bit_length()}-bit number, {k} factors")
            return comb(n, k)

        monkeypatch.setattr(math, "comb", small_comb)
        state = FockState(1001, (10**4299,) + (0,) * 1000, (0,) * 1001)
        with pytest.raises(CapacityError, match=r"^over 2\*\*14280 H and 0 V photons over 1001 "
                                                r"ports: over the 24-photon cap"):
            require_capacity(state)

    def test_huge_count_on_one_port_is_capped(self):
        # One pattern, but 10^18 photons would be 10^18 levels of tables.
        state = FockState(1, (10**18,), (0,))
        with pytest.raises(CapacityError, match="24-photon cap"):
            evolve(np.eye(1), state)

    @pytest.mark.parametrize("n, capped", [(10, False), (11, True), (12, True)])
    def test_output_term_cap_on_polarization_scheme(self, monkeypatch, n, capped):
        # n - 1 H photons and one V: C(2n - 2, n - 1) * n output terms,
        # 486,200 at n = 10 and 2,032,316 at n = 11.
        class Reached(Exception):
            pass

        def stop(m):
            raise Reached

        monkeypatch.setattr(evolve_module, "permanent", stop)
        with pytest.raises(CapacityError if capped else Reached):
            evolve(dft_multiport(n), scheme2_input(n))

    def test_non_unitary_rejected(self):
        with pytest.raises(NumericalError, match="not unitary") as info:
            evolve(np.ones((2, 2)), single_photon_state(0, H, 2))
        # Callers that catch either base class still see it.
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, ArithmeticError)


class TestOracleEvolve:
    def test_single_photon_matches_evolve(self):
        u = dft_multiport(3)
        state = single_photon_state(1, H, 3)
        assert oracle_evolve(u, state).allclose(evolve(u, state), tol=1e-12)

    def test_hong_ou_mandel(self):
        u = dft_multiport(2)
        out = oracle_evolve(u, product_input([(0, H), (1, H)], 2))
        split = out.amplitude(product_input([(0, H), (1, H)], 2))
        assert abs(split) <= 1e-12
        for port in (0, 1):
            bunched = out.amplitude(product_input([(port, H), (port, H)], 2))
            assert abs(abs(bunched) - 1 / math.sqrt(2)) <= 1e-12

    def test_scheme2_matches_evolve(self):
        u = dft_multiport(3)
        state = product_input([(0, H), (1, H), (2, V)], 3)
        assert oracle_evolve(u, state).allclose(evolve(u, state), tol=1e-9)

    def test_oracle_cap(self):
        with pytest.raises(CapacityError):
            oracle_evolve(dft_multiport(5), single_photon_state(0, H, 5))
        with pytest.raises(CapacityError):
            oracle_evolve(dft_multiport(2), product_input([(0, H)] * 5, 2))

    def test_exhaustive_two_ports(self):
        rng = np.random.default_rng(5)
        u = random_unitary(2, rng)
        for state in all_fock_states(2, 3):
            assert evolve(u, state).allclose(oracle_evolve(u, state), tol=1e-9)


def _permuted(state: FockState, perm: np.ndarray) -> FockState:
    """``state`` with the photons of port i moved to port perm[i]."""
    h, v = np.empty(state.n_ports, dtype=int), np.empty(state.n_ports, dtype=int)
    h[perm], v[perm] = state.h, state.v
    return FockState(state.n_ports, tuple(h.tolist()), tuple(v.tolist()))


class TestInvariants:
    """Laws of linear optics that hold past the oracle's 4 photons and 4 ports."""

    @pytest.mark.parametrize("n, terms", [(3, 4), (4, 10), (5, 26), (6, 68), (7, 246), (8, 810)])
    def test_dft_suppression_law(self, n, terms):
        # One photon per port through DFT_n: every output has sum(p * h_p) = 0 (mod n).
        out = evolve(dft_multiport(n), FockState(n, (1,) * n, (0,) * n))
        assert len(out) == terms
        assert not np.any(out.occupations[:, :n].astype(int) @ np.arange(n) % n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_port_permutation_covariance(self, n):
        # evolve(P U Q, Q^-1 s) = P evolve(U, s) for port permutations P and Q.
        rng = np.random.default_rng(900 + n)
        u = random_unitary(n, rng)
        p_perm, q_perm = rng.permutation(n), rng.permutation(n)
        p, q = np.zeros((n, n)), np.zeros((n, n))
        p[p_perm, np.arange(n)] = q[q_perm, np.arange(n)] = 1
        inputs = [product_input([(0, H), (0, H), (n - 1, H)], n),
                  product_input([(int(rng.integers(n)), H if rng.random() < 0.5 else V)
                                 for _ in range(5)], n)]
        for state in inputs:
            expected = SuperposedState({_permuted(s, p_perm): a for s, a in evolve(u, state)}, n)
            moved = _permuted(state, np.argsort(q_perm))
            assert evolve(p @ u @ q, moved).allclose(expected, tol=1e-12), state

    def test_port_permutation_covariance_at_n8(self):
        # The same law at n = 8 on a seeded bunched input of 10 H photons, whose
        # 19,448 output terms come from the photon-by-photon sector.
        n = 8
        rng = np.random.default_rng(908)
        u = random_unitary(n, rng)
        p_perm, q_perm = rng.permutation(n), rng.permutation(n)
        p, q = np.zeros((n, n)), np.zeros((n, n))
        p[p_perm, np.arange(n)] = q[q_perm, np.arange(n)] = 1
        h = np.bincount(rng.integers(n, size=10), minlength=n)
        assert h.max() >= 3
        state = FockState(n, tuple(h.tolist()), (0,) * n)
        out = evolve(u, state)
        got = evolve(p @ u @ q, _permuted(state, np.argsort(q_perm)))
        # The photons of each output row moved to ports p_perm, rows back in tuple order.
        moved = np.empty_like(out.occupations)
        moved[:, np.concatenate([p_perm, p_perm + n])] = out.occupations
        order = np.lexsort(moved.T[::-1])
        assert len(out) == 19_448
        assert np.array_equal(got.occupations, moved[order])
        assert np.max(np.abs(got.amplitudes - out.amplitudes[order])) <= 1e-12

    @pytest.mark.parametrize("n, h, v, terms", [
        (3, (1, 1, 0), (0, 0, 1), 18),  # a 2-photon sector, one Gray-code permanent per pattern
        (5, (3, 3, 2, 0, 0), (0,) * 5, 495),
        (6, (1, 0, 2, 0, 0, 0), (0, 1, 0, 0, 1, 1), 3136),
        (8, (4, 0, 3, 0, 2, 0, 1, 0), (0,) * 8, 19_448),
    ])
    def test_diagonal_phase_covariance(self, n, h, v, terms):
        # evolve(D1 U D2, s) is evolve(U, s) with each term m times prod_r a_r^(m_r^H + m_r^V)
        # and prod_c b_c^(s_c^H + s_c^V), for D1 = diag(a) and D2 = diag(b).
        rng = np.random.default_rng(1500 + n)
        u = random_unitary(n, rng)
        a, b = (np.exp(2j * math.pi * rng.random(n)) for _ in "ab")
        state = FockState(n, h, v)
        out = evolve(u, state)
        got = evolve(a[:, None] * u * b, state)
        assert len(out) == terms
        spatial = out.occupations[:, :n] + out.occupations[:, n:]
        phases = np.prod(a ** spatial, axis=1) * np.prod(b ** np.add(h, v))
        assert np.array_equal(got.occupations, out.occupations)
        assert np.max(np.abs(got.amplitudes - out.amplitudes * phases)) <= 1e-12

    def test_outputs_of_distinct_inputs_are_orthogonal(self):
        # Every input of 2 H and 1 V photons over 6 ports, bunched ones included.
        n = 6
        u = random_unitary(n, np.random.default_rng(66))
        inputs = [product_input([(a, H), (b, H), (c, V)], n)
                  for a, b in combinations_with_replacement(range(n), 2) for c in range(n)]
        outputs = [evolve(u, s).terms for s in inputs]
        basis = {s: i for i, s in enumerate(sorted(set().union(*outputs)))}
        m = np.zeros((len(inputs), len(basis)), dtype=complex)
        for row, terms in zip(m, outputs):
            row[[basis[s] for s in terms]] = list(terms.values())
        assert len(inputs) == 126
        assert np.max(np.abs(m.conj() @ m.T - np.eye(len(inputs)))) <= 1e-12
