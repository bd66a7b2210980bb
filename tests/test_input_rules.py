"""The package's two input rules, at every public entry point that uses them.

A size, port or count is an integer: numpy integers pass and are stored as
``int``, while a float (2.0 included), a string, ``None`` or a ``bool``
raises ``ValueError``. A matrix argument must be square, else ``ValueError``.
"""
import numpy as np
import pytest

from wstategen import linalg
from wstategen.evolve import evolve, transition_amplitude
from wstategen.fock import (
    FockState,
    Polarization,
    SuperposedState,
    single_photon_state,
    w_state_path,
    w_state_polarization,
)
from wstategen.postselect import CoincidencePattern
from wstategen.schemes import (
    polarization_scheme_coupler,
    run_path_w,
    run_polarization_w,
    scheme2_input,
)

H = Polarization.H

ENTRY_POINTS = {
    "dft_multiport": linalg.dft_multiport,
    "w_state_path": w_state_path,
    "w_state_polarization": w_state_polarization,
    "scheme2_input": scheme2_input,
    "run_path_w n": run_path_w,
    "run_path_w input_port": lambda x: run_path_w(3, x),
    "run_polarization_w": run_polarization_w,
    "polarization_scheme_coupler": polarization_scheme_coupler,
    "FockState.from_counts n_ports": lambda x: FockState.from_counts([], x),
    "FockState.from_counts port": lambda x: FockState.from_counts([((x, H), 1)], 4),
    "FockState.from_counts count": lambda x: FockState.from_counts([((0, H), x)], 4),
    "SuperposedState": lambda x: SuperposedState([], x, require_normalized=False),
    "CoincidencePattern.port_counts port": lambda x: CoincidencePattern.port_counts({x: 1}),
    "CoincidencePattern.port_counts count": lambda x: CoincidencePattern.port_counts({0: x}),
    "matrix_from_json_obj": lambda x: linalg.matrix_from_json_obj(
        {"n": x, "entries": [[1.0, 0.0]] * 9}),
}


@pytest.mark.parametrize("value", [2.5, 2.0, 4.0, True, "3", None])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_raises_value_error(entry, value):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", ["dft_multiport", "w_state_path", "w_state_polarization",
                                   "run_path_w n", "run_polarization_w"])
@pytest.mark.parametrize("n", [1, 0, -2])
def test_port_count_below_two_raises(entry, n):
    with pytest.raises(ValueError, match="at least 2"):
        ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("run, args", [(run_polarization_w, (3,)), (run_path_w, (4, 1))])
def test_numpy_integer_reports_equal_int_reports(run, args):
    assert run(*map(np.int64, args)).to_json() == run(*args).to_json()


def test_numpy_integer_sizes_stored_as_int():
    assert type(run_polarization_w(np.int64(2)).n) is int
    assert type(scheme2_input(np.int32(3)).n_ports) is int
    assert w_state_path(np.int64(3)) == w_state_path(3)


def test_dft_multiport_numpy_integer_bit_equal():
    a, b = linalg.dft_multiport(np.int64(5)), linalg.dft_multiport(5)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_matrix_json_accepts_numpy_integer_size():
    obj = linalg.matrix_to_json_obj(linalg.dft_multiport(3))
    back = linalg.matrix_from_json_obj({**obj, "n": np.int64(3)})
    assert np.array_equal(back, linalg.dft_multiport(3))


SQUARE_USERS = {
    "verify_unitary": linalg.verify_unitary,
    "permanent": linalg.permanent,
    "permanent_naive": linalg.permanent_naive,
    "write_matrix": lambda m, path: linalg.write_matrix(path, m),
    "evolve": lambda m: evolve(m, single_photon_state(0, H, 2)),
    "transition_amplitude": lambda m: transition_amplitude(
        m, single_photon_state(0, H, 2), single_photon_state(1, H, 2)),
}


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
@pytest.mark.parametrize("user", SQUARE_USERS)
def test_non_square_raises_value_error(user, shape, tmp_path):
    call = SQUARE_USERS[user]
    args = (tmp_path / "m.json",) if user == "write_matrix" else ()
    with pytest.raises(ValueError, match="not square"):
        call(np.ones(shape), *args)
    assert not (tmp_path / "m.json").exists()
