import math
from fractions import Fraction

import numpy as np
import pytest

from wstategen import linalg, schemes
from wstategen.errors import CapacityError, NumericalError
from wstategen.fock import Polarization, single_photon_state
from wstategen.schemes import (
    polarization_scheme_coupler,
    run_designed_path,
    run_path_w,
    run_polarization_w,
    scheme2_input,
)

H, V = Polarization.H, Polarization.V


def _square_bits(a: complex) -> str:
    """The bits of ``abs(a)`` squared exactly and rounded once to a double."""
    return float.hex(float(Fraction(abs(a)) ** 2))


class TestRunPathW:
    def test_tritter_port0(self):
        report = run_path_w(3, 0)
        assert report.success_probability == 1.0
        assert report.probability_uniform
        assert all(abs(p - 1 / 3) <= 1e-12 for p in report.port_probabilities)
        assert abs(report.fidelity_to_target - 1.0) <= 1e-9
        assert report.post_selection is None

    def test_port1_uniform_probabilities_zero_raw_fidelity(self):
        # the DFT column for input port 1 carries phases 1, w, w^2 which
        # sum to zero against the uniform-phase target
        report = run_path_w(3, 1)
        assert report.probability_uniform
        assert report.fidelity_to_target <= 1e-12
        assert report.success_probability == 1.0

    def test_n7(self):
        report = run_path_w(7, 0)
        assert len(report.port_probabilities) == 7
        assert all(abs(p - 1 / 7) <= 1e-12 for p in report.port_probabilities)

    @pytest.mark.parametrize("n,port", [(1, 0), (3, 3), (3, -1)])
    def test_invalid_args(self, n, port):
        with pytest.raises(ValueError):
            run_path_w(n, port)

    def test_input_port_checked_by_the_state(self):
        with pytest.raises(ValueError, match=r"^port 5 out of range for 3 ports$"):
            run_path_w(3, 5)

    @pytest.mark.parametrize("port", [1, 14, 42])
    def test_port_probabilities_are_correctly_rounded_squares(self, port):
        # From each of these ports, 3 of DFT_43's 43 squares differ under glibc's pow(x, 2).
        report = run_path_w(43, port)
        amps = [report.output_state.amplitude(single_photon_state(p, Polarization.H, 43))
                for p in range(43)]
        assert list(map(float.hex, report.port_probabilities)) == list(map(_square_bits, amps))


@pytest.mark.parametrize("run, error, match", [
    (lambda: run_polarization_w(11), CapacityError, "2032316 output terms"),
    # 19,999 H photons are over the photon cap before any output term is counted.
    (lambda: run_polarization_w(20000), CapacityError,
     r"^19999 H and 1 V photons over 20000 ports: over the 24-photon cap"),
    (lambda: run_path_w(3, 5), ValueError, r"^port 5 out of range for 3 ports$"),
], ids=["polar-w-11", "polar-w-20000", "path-w-port"])
def test_inputs_checked_before_any_coupler(monkeypatch, run, error, match):
    def no_coupler(*args):
        raise AssertionError("coupler built before the input checks")

    for module, name in ((linalg, "dft_multiport"), (linalg, "canonical_quarter"),
                         (schemes, "polarization_scheme_coupler")):
        monkeypatch.setattr(module, name, no_coupler)
    with pytest.raises(error, match=match):
        run()


class TestRunPolarizationW:
    def test_n3(self):
        report = run_polarization_w(3)
        assert abs(report.success_probability - 1 / 9) <= 1e-9
        assert abs(report.fidelity_to_target - 1.0) <= 1e-9
        assert report.reference_note == "published value 1/9"

    def test_n4(self):
        report = run_polarization_w(4)
        assert abs(report.success_probability - 1 / 16) <= 1e-9
        assert abs(report.fidelity_to_target - 1.0) <= 1e-9

    def test_n4_probability_is_exactly_one_sixteenth(self):
        # Exact +-1/2 coupler entries: every kept amplitude is a sum of exact dyadic terms.
        report = run_polarization_w(4)
        assert report.success_probability == 1 / 16
        assert report.post_selection.dropped_probability == 15 / 16

    def test_n5_reported_as_unpublished(self):
        report = run_polarization_w(5)
        assert report.reference_note == "computed, no published reference"
        assert 0.0 < report.success_probability < 1.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_kept_branches_equal_single_v(self, n):
        report = run_polarization_w(n)
        kept = list(report.post_selection.conditional)
        assert len(kept) == n
        amps = [amp for _, amp in kept]
        for s, _ in kept:
            assert s.photons_per_pol()[V] == 1
        for amp in amps:
            assert abs(amp - amps[0]) <= 1e-12

    def test_unpublished_n_values(self):
        """The DFT couplers at n = 2, 5 and 6, which have no published reference.

        n=6: every one-per-port amplitude cancels, so nothing is kept, the
        probability and fidelity are 0 and the conditional state is empty.
        n=5: probability 1/625. n=2: probability 1/2, but the conditional is
        the antisymmetric (|HV> - |VH>)/sqrt(2), orthogonal to the uniform W.
        """
        six = run_polarization_w(6)
        assert six.success_probability == 0.0
        assert six.post_selection.kept_terms == 0
        assert six.fidelity_to_target == 0.0
        assert len(six.post_selection.conditional) == 0

        assert abs(run_polarization_w(5).success_probability - 1 / 625) <= 1e-12

        two = run_polarization_w(2)
        assert abs(two.success_probability - 1 / 2) <= 1e-12
        (_, a), (_, b) = two.post_selection.conditional
        assert abs(a + b) <= 1e-12 and abs(abs(a) - math.sqrt(0.5)) <= 1e-12
        assert two.fidelity_to_target < 1e-12

    def test_scheme2_input_layout(self):
        state = scheme2_input(4)
        assert state.photons_per_pol() == {H: 3, V: 1}
        assert state.occupation_vector(V) == (0, 0, 0, 1)

    def test_coupler_choice(self):
        assert np.allclose(np.imag(polarization_scheme_coupler(4)), 0.0)
        assert np.max(np.abs(np.imag(polarization_scheme_coupler(3)))) > 0.1


class TestRunDesignedPath:
    def test_clone_target(self):
        target = np.array([math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)])
        report = run_designed_path(target)
        assert report.success_probability == 1.0
        assert abs(report.fidelity_to_target - 1.0) <= 1e-9
        probs = report.port_probabilities
        assert abs(probs[0] - 2 / 3) <= 1e-12
        assert abs(probs[1] - 1 / 6) <= 1e-12
        assert abs(probs[2] - 1 / 6) <= 1e-12

    def test_port_probabilities_are_correctly_rounded_squares(self):
        # Ports 2 and 3 square 5/sqrt(68), which glibc's pow(x, 2) rounds up one bit.
        target = np.array([3.0, 3.0, 5.0, 5.0]) / math.sqrt(68)
        report = run_designed_path(target)
        assert list(map(float.hex, report.port_probabilities)) == list(map(_square_bits, target))

    def test_basis_target(self):
        report = run_designed_path(np.array([1.0, 0.0]))
        assert report.port_probabilities == (1.0, 0.0)

    def test_uniform_matches_path_w_probabilities(self):
        report = run_designed_path(np.full(5, 1 / math.sqrt(5)))
        reference = run_path_w(5, 0)
        assert np.allclose(report.port_probabilities, reference.port_probabilities,
                           atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            run_designed_path(np.array([1.0, 1.0]))

    def test_output_mismatch_names_the_port(self, monkeypatch):
        # An identity coupler sends the photon straight through: port 0 holds
        # amplitude 1, not the target's first entry.
        monkeypatch.setattr(linalg, "complete_unitary_from_column",
                            lambda c: np.eye(len(c), dtype=complex))
        target = np.array([math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)])
        with pytest.raises(NumericalError, match="designed output at port 0 "):
            run_designed_path(target)


class TestReportSerialization:
    def test_deterministic(self):
        assert run_polarization_w(3).to_json() == run_polarization_w(3).to_json()
        assert run_path_w(4, 1).to_json() == run_path_w(4, 1).to_json()

    def test_flat_shape(self):
        obj = run_polarization_w(3).to_json_obj()
        for key in ("schemeKind", "n", "unitaryUsed", "outputState",
                    "postSelection", "fidelityToTarget", "successProbability"):
            assert key in obj
        assert obj["schemeKind"] == "polarization-W"
        assert obj["postSelection"]["keptTerms"] == 3

    def test_path_w_has_no_postselection(self):
        obj = run_path_w(3, 0).to_json_obj()
        assert obj["postSelection"] is None
        assert obj["successProbability"] == 1.0
