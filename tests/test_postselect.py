import cmath
import functools
import importlib
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from wstategen.evolve import evolve
from wstategen.fock import Polarization, SuperposedState, product_input, single_photon_state, w_state_path, w_state_polarization
from wstategen.linalg import dft_multiport
from wstategen.postselect import (
    CoincidencePattern,
    branch_amplitude_report,
    fidelity,
    postselect,
)

postselect_module = importlib.import_module("wstategen.postselect")

H, V = Polarization.H, Polarization.V


def scheme2_output():
    return evolve(dft_multiport(3), product_input([(0, H), (1, H), (2, V)], 3))


def _square(a: complex) -> float:
    """``abs(a)`` squared exactly, then rounded to the nearest double."""
    return float(Fraction(abs(a)) ** 2)


class TestPostselect:
    def test_scheme2_one_per_port(self):
        result = postselect(scheme2_output(), CoincidencePattern.one_per_port())
        assert abs(result.probability - 1 / 9) <= 1e-9
        assert result.kept_terms == 3
        assert fidelity(result.conditional, w_state_polarization(3)) >= 1 - 1e-9

    def test_path_w_single_port(self):
        result = postselect(w_state_path(3), CoincidencePattern.port_counts({0: 1}))
        assert abs(result.probability - 1 / 3) <= 1e-12

    def test_hong_ou_mandel_zero_probability(self):
        out = evolve(dft_multiport(2), product_input([(0, H), (1, H)], 2))
        result = postselect(out, CoincidencePattern.one_per_port())
        assert result.probability == 0.0
        assert result.kept_terms == 0
        assert len(result.conditional) == 0
        assert result.dropped_probability == 1.0

    def test_probability_conservation(self):
        result = postselect(scheme2_output(), CoincidencePattern.one_per_port())
        assert abs(result.probability + result.dropped_probability - 1.0) <= 1e-9

    def test_idempotent(self):
        first = postselect(scheme2_output(), CoincidencePattern.one_per_port())
        again = postselect(first.conditional, CoincidencePattern.one_per_port())
        assert abs(again.probability - 1.0) <= 1e-9
        assert again.conditional.allclose(first.conditional, tol=1e-12)

    def test_tightening_never_increases_probability(self):
        state = scheme2_output()
        loose = postselect(state, CoincidencePattern.port_counts({0: 1}))
        tight = postselect(state, CoincidencePattern.port_counts({0: 1, 1: 1}))
        tighter = postselect(state, CoincidencePattern.port_counts({0: 1, 1: 1, 2: 1}))
        assert tight.probability <= loose.probability + 1e-12
        assert tighter.probability <= tight.probability + 1e-12

    def test_out_of_range_pattern_raises(self):
        with pytest.raises(ValueError):
            postselect(w_state_path(3), CoincidencePattern.port_counts({5: 1}))

    def test_mask_names_the_first_port_the_state_lacks(self):
        pattern = CoincidencePattern.port_counts({7: 0, 0: 1, 5: 1})
        with pytest.raises(ValueError, match=r"^pattern references port 5, device has 3$"):
            pattern.mask(w_state_path(3))

    @pytest.mark.parametrize("counts", [{0: 1.5}, {0: 1.0}, {0.0: 1}, {0: "1"}])
    def test_non_integer_port_or_count_rejected(self, counts):
        with pytest.raises(ValueError, match="must be integers"):
            CoincidencePattern.port_counts(counts)

    def test_numpy_integer_counts_accepted(self):
        pattern = CoincidencePattern.port_counts({np.int64(1): np.int32(1), 0: 0})
        assert pattern.required == ((0, 0), (1, 1))
        assert all(type(x) is int for pair in pattern.required for x in pair)
        result = postselect(w_state_path(3), pattern)
        assert abs(result.probability - 1 / 3) <= 1e-12

    def test_probability_is_a_left_to_right_sum(self, monkeypatch):
        # Since Python 3.12 the builtin sum() compensates float sums; the reported
        # probability must keep the plain left-to-right bits on every version.
        n = 12
        rng = np.random.default_rng(3)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        state = SuperposedState({single_photon_state(p, H, n): complex(a)
                                 for p, a in enumerate(amps)}, n)
        pattern = CoincidencePattern.port_counts({0: 0})
        squares = [_square(a) for a in state.amplitudes[pattern.mask(state)].tolist()]
        fold = functools.reduce(operator.add, squares, 0.0)
        assert math.fsum(squares) != fold
        monkeypatch.setattr(postselect_module, "sum", lambda xs, start=0: math.fsum(xs) + start,
                            raising=False)
        result = postselect(state, pattern)
        assert result.probability == fold
        assert result.dropped_probability == 1.0 - fold

    def test_json_shape(self):
        result = postselect(scheme2_output(), CoincidencePattern.one_per_port())
        obj = result.to_json_obj()
        assert set(obj) == {"probability", "droppedProbability", "keptTerms", "conditional"}
        assert obj["keptTerms"] == 3


class TestBranchAmplitudeReport:
    def test_scheme2_branches(self):
        report = branch_amplitude_report(scheme2_output(), CoincidencePattern.one_per_port())
        assert len(report) == 3
        expected = (cmath.exp(2j * math.pi / 3) + cmath.exp(4j * math.pi / 3)) / (3 * math.sqrt(3))
        assert abs(expected - (-1 / (3 * math.sqrt(3)))) <= 1e-15
        for _, amp in report:
            assert abs(amp - expected) <= 1e-12

    def test_path_w_full_acceptance(self):
        out = evolve(dft_multiport(3), single_photon_state(0, H, 3))
        report = branch_amplitude_report(out, CoincidencePattern.port_counts({}))
        amps = [amp for _, amp in report]
        assert len(amps) == 3
        for amp in amps:
            assert abs(amp - 1 / math.sqrt(3)) <= 1e-12

    def test_hong_ou_mandel_empty(self):
        out = evolve(dft_multiport(2), product_input([(0, H), (1, H)], 2))
        report = branch_amplitude_report(out, CoincidencePattern.one_per_port())
        assert report == []


class TestFidelity:
    def test_self_fidelity(self):
        state = w_state_polarization(3)
        assert abs(fidelity(state, state) - 1.0) <= 1e-12

    def test_global_phase_invariant(self):
        state = w_state_path(3)
        for theta in (0.3, 1.7, -2.5):
            phased = SuperposedState(
                {s: a * cmath.exp(1j * theta) for s, a in state}, 3
            )
            assert abs(fidelity(state, phased) - 1.0) <= 1e-12

    def test_orthogonal_basis_states(self):
        a = SuperposedState({single_photon_state(0, H, 2): 1.0}, 2)
        b = SuperposedState({single_photon_state(1, H, 2): 1.0}, 2)
        assert fidelity(a, b) == 0.0

    def test_empty_state_fidelity_is_float_zero(self):
        empty = SuperposedState({}, 3, require_normalized=False)
        value = fidelity(empty, w_state_path(3))
        assert type(value) is float and value == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(9)
        states = []
        for _ in range(4):
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps /= np.linalg.norm(amps)
            states.append(
                SuperposedState(
                    {single_photon_state(p, H, 3): amps[p] for p in range(3)}, 3
                )
            )
        for x in states:
            for y in states:
                f = fidelity(x, y)
                assert 0.0 <= f <= 1.0
                assert abs(f - fidelity(y, x)) <= 1e-12

    def test_overlap_is_a_left_to_right_sum(self, monkeypatch):
        # A compensated complex sum() must not reach the overlap either.
        n = 12
        rng = np.random.default_rng(6)
        x, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        state, target = (SuperposedState({single_photon_state(p, H, n): complex(a)
                                          for p, a in enumerate(v)}, n) for v in (x, y))
        terms = [t.conjugate() * a for t, a in zip(target.amplitudes.tolist(),
                                                   state.amplitudes.tolist())]
        fold = functools.reduce(operator.add, terms, 0j)
        compensated = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
        assert _square(compensated) != _square(fold)

        def compensated_sum(xs, start=0):
            xs = list(xs)
            return start + complex(math.fsum(z.real for z in xs), math.fsum(z.imag for z in xs))

        monkeypatch.setattr(postselect_module, "sum", compensated_sum, raising=False)
        assert fidelity(state, target) == _square(fold)

    def test_port_mismatch_raises(self):
        with pytest.raises(ValueError):
            fidelity(w_state_path(2), w_state_path(3))

    def test_round_off_above_one_is_clamped(self):
        target = SuperposedState({single_photon_state(0, H, 2): 1.0}, 2)
        state = SuperposedState({single_photon_state(0, H, 2): 1.0 + 1e-11}, 2)
        assert fidelity(state, target) == 1.0

    def test_unnormalized_state_raises(self):
        target = SuperposedState({single_photon_state(0, H, 2): 1.0}, 2)
        state = SuperposedState({single_photon_state(0, H, 2): 2.0}, 2,
                                require_normalized=False)
        with pytest.raises(ArithmeticError):
            fidelity(state, target)
