"""The package's input rules, at every public entry point that uses them.

A size, port or count is an integer: numpy integers pass and are stored as
``int``, while a float (2.0 included), a string, ``None`` or a ``bool``
raises ``ValueError``. A matrix argument must be square, else ``ValueError``.
A matrix entry, design target or amplitude is an ``[re, im]`` pair of finite
numbers (``int``, ``float`` or numpy reals, not ``bool``), read by
``linalg.complex_pairs``, else ``ValueError``. A JSON object is read by
``errors.json_fields``: a non-object, a missing key or a key of the wrong
kind raises ``ValueError`` naming the reader.
"""
import io
import json

import numpy as np
import pytest

from wstategen import linalg
from wstategen.cli import EXIT_INVALID, main
from wstategen.errors import int_text, json_fields
from wstategen.evolve import evolve, transition_amplitude
from wstategen.fock import (
    FockState,
    Polarization,
    SuperposedState,
    single_photon_state,
    w_state_path,
    w_state_polarization,
)
from wstategen.postselect import CoincidencePattern, postselect
from wstategen.schemes import (
    polarization_scheme_coupler,
    run_path_w,
    run_polarization_w,
    scheme2_input,
)
from support import assert_same_text, random_unitary

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
    assert_same_text(run(*map(np.int64, args)).to_json(), run(*args).to_json())


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


# One malformed input of each kind for the [re, im] rule.
BAD_PAIRS = {
    "bool": [[True, False]],
    "string": [["1", 0]],
    "scalar": [1],
    "triple": [[1, 0, 9]],
    "null": [[None, 0]],
    "401 digits": [[10**400, 0]],
    "nan": [[float("nan"), 0]],
    "numpy bool": [[np.bool_(True), 0.0]],
    "complex": [[1j, 0]],
    "nested": [[[1, 0]]],
    "ragged": [[1, 0], [1]],
    "not a list": 5,
}


@pytest.mark.parametrize("bad", BAD_PAIRS)
def test_complex_pairs_refuses(bad):
    with pytest.raises(ValueError, match="^reader X must be a list of"):
        linalg.complex_pairs(BAD_PAIRS[bad], "reader X")


@pytest.mark.parametrize("bad", BAD_PAIRS)
def test_matrix_entries_refused_with_value_error(bad):
    entries = BAD_PAIRS[bad]
    with pytest.raises(ValueError, match="matrix JSON entries must be"):
        linalg.matrix_from_json_obj({"n": 1, "entries": entries})


def test_matrix_entries_of_json_text_refused(tmp_path):
    path = tmp_path / "m.json"
    for text in ("[[true, false]]", '[[1, 0, "junk"]]', "[[1" + "0" * 400 + ", 0]]"):
        path.write_text('{"n": 1, "entries": %s}' % text)
        with pytest.raises(ValueError, match="matrix JSON entries must be"):
            linalg.read_matrix(path)


def test_superposed_amplitude_refused():
    state = w_state_path(2)
    obj = state.to_json_obj()
    obj["terms"][0]["amp"] = [True, False, "junk"]
    with pytest.raises(ValueError, match="SuperposedState amplitudes must be"):
        SuperposedState.from_json_obj(obj)
    for bad in ([True, False], ["1", 0], 1, [None, 0], [10**400, 0]):
        obj["terms"][0]["amp"] = bad
        with pytest.raises(ValueError, match="SuperposedState amplitudes must be"):
            SuperposedState.from_json_obj(obj, require_normalized=False)


def _signed_zero_and_subnormal(n: int) -> np.ndarray:
    m = np.full((n, n), complex(-0.0, -0.0))
    m.flat[::2] = complex(5e-324, -2.2250738585072014e-308)
    m.flat[1::3] = complex(-5e-324, 0.0)
    return m


MATRICES = {
    **{f"random {n} seed {n * 7}": random_unitary(n, np.random.default_rng(n * 7))
       for n in (1, 2, 5, 9)},
    **{f"dft {n}": linalg.dft_multiport(n) for n in (2, 3, 4, 7, 16)},
    "signed zero and subnormal": _signed_zero_and_subnormal(4),
}


@pytest.mark.parametrize("name", MATRICES)
def test_matrix_json_round_trip_is_bit_identical(name):
    u = MATRICES[name]
    back = linalg.matrix_from_json_obj(linalg.matrix_to_json_obj(u))
    assert back.dtype == np.complex128 and back.shape == u.shape
    assert back.tobytes() == u.tobytes()
    text = json.loads(json.dumps(linalg.matrix_to_json_obj(u)))
    assert linalg.matrix_from_json_obj(text).tobytes() == u.tobytes()


def _python_complex_bytes(pairs) -> bytes:
    return np.array([complex(re, im) for re, im in pairs]).tobytes()


def test_integer_entries_give_the_bits_of_python_complex():
    ints = [0, -0, 1, -3, 2**53 + 1, -(2**63) - 1, 2**64 + 2**11 + 1, 2**70 + 1,
            10**308, -(2**1024 - 2**970 - 1)]
    pairs = [[a, b] for a in ints for b in ints]
    want = _python_complex_bytes(pairs)
    assert linalg.complex_pairs(pairs, "ints").tobytes() == want


def test_numpy_scalars_pass():
    pairs = [[np.int64(3), np.float32(0.1)], [np.uint64(2**64 - 1), np.float64(-0.0)],
             [np.int8(-2), np.float16(0.3)], [np.longdouble(1) / 3, 0]]
    want = _python_complex_bytes(pairs)
    assert linalg.complex_pairs(pairs, "numpy").tobytes() == want
    obj = {"n": np.int64(2), "entries": pairs}
    assert linalg.matrix_from_json_obj(obj).ravel().tobytes() == want


def test_empty_pairs_give_an_empty_vector():
    empty = linalg.complex_pairs([], "nothing")
    assert empty.dtype == np.complex128 and empty.shape == (0,)


@pytest.mark.parametrize("state", [
    w_state_path(5),
    w_state_polarization(4),
    run_polarization_w(3).output_state,
    evolve(linalg.dft_multiport(4), FockState.from_counts([((0, H), 2), ((3, H), 1)], 4)),
], ids=["path W5", "polarization W4", "scheme 2 output n=3", "bunched DFT4 output"])
def test_superposed_json_round_trip(state):
    assert SuperposedState.from_json_obj(state.to_json_obj()) == state
    text = json.loads(json.dumps(state.to_json_obj()))
    assert SuperposedState.from_json_obj(text) == state


def test_json_fields_reads_keys_in_order():
    assert json_fields({"b": [1], "a": 2, "c": 3}, "thing", a=object, b=list) == [2, [1]]


@pytest.mark.parametrize("obj,message", [
    ([], "thing must be a JSON object, got list"),
    ("a", "thing must be a JSON object, got str"),
    (None, "thing must be a JSON object, got NoneType"),
    ({"a": 1}, "thing has no key 'b'"),
    ({"a": 1, "b": 5}, "thing key 'b' must be a list, got int"),
])
def test_json_fields_refuses(obj, message):
    with pytest.raises(ValueError) as info:
        json_fields(obj, "thing", a=object, b=list)
    assert type(info.value) is ValueError and str(info.value) == message


_FOCK = {"nPorts": 2, "occ": [{"port": 0, "pol": "H", "count": 1}]}

# reader -> malformed JSON object -> the start of its message.
BAD_OBJECTS = {
    "matrix": (linalg.matrix_from_json_obj, {
        "list": ([], "matrix JSON must be a JSON object"),
        "no entries": ({"n": 1}, "matrix JSON has no key 'entries'"),
        "no n": ({"entries": [[1.0, 0.0]]}, "matrix JSON has no key 'n'"),
    }),
    "fock": (FockState.from_json_obj, {
        "list": ([_FOCK], "Fock state JSON must be a JSON object"),
        "no occ": ({"nPorts": 2}, "Fock state JSON has no key 'occ'"),
        "occ not a list": ({"nPorts": 2, "occ": 5}, "Fock state JSON key 'occ' must be a list"),
        "entry without pol": ({"nPorts": 2, "occ": [{"port": 0, "count": 1}]},
                              "Fock state occ entry has no key 'pol'"),
        "entry not an object": ({"nPorts": 2, "occ": [[0, "H", 1]]},
                                "Fock state occ entry must be a JSON object"),
    }),
    "superposed": (SuperposedState.from_json_obj, {
        "string": ("terms", "SuperposedState JSON must be a JSON object"),
        "no nPorts": ({"terms": []}, "SuperposedState JSON has no key 'nPorts'"),
        "no terms": ({"nPorts": 2}, "SuperposedState JSON has no key 'terms'"),
        "term without amp": ({"nPorts": 2, "terms": [{"state": _FOCK}]},
                             "SuperposedState term has no key 'amp'"),
        "term without state": ({"nPorts": 2, "terms": [{"amp": [1.0, 0.0]}]},
                               "SuperposedState term has no key 'state'"),
        "state without occ": ({"nPorts": 2, "terms": [{"state": {"nPorts": 2},
                                                       "amp": [1.0, 0.0]}]},
                              "Fock state JSON has no key 'occ'"),
    }),
}
BAD_OBJECT_CASES = [(reader, case) for reader, (_, cases) in BAD_OBJECTS.items()
                    for case in cases]


@pytest.mark.parametrize("reader,case", BAD_OBJECT_CASES)
def test_json_readers_raise_value_error(reader, case):
    read, cases = BAD_OBJECTS[reader]
    obj, message = cases[case]
    with pytest.raises(ValueError) as info:
        read(obj)
    assert type(info.value) is ValueError and str(info.value).startswith(message)


@pytest.mark.parametrize("reader,case", [c for c in BAD_OBJECT_CASES if c[0] != "superposed"])
def test_cli_exits_2_on_malformed_json_objects(reader, case, tmp_path, capsys):
    obj, message = BAD_OBJECTS[reader][1][case]
    matrix, state = tmp_path / "m.json", tmp_path / "s.json"
    linalg.write_matrix(matrix, linalg.dft_multiport(2))
    state.write_text(json.dumps(_FOCK))
    (matrix if reader == "matrix" else state).write_text(json.dumps(obj))
    assert main(["evolve", "--matrix", str(matrix), "--input", str(state)], io.StringIO()) \
        == EXIT_INVALID
    assert message in capsys.readouterr().err


# 16,610 bits: str() refuses its 5,001 digits, so a message writes its bit length.
HUGE = 10**5000


@pytest.mark.parametrize("run, message", [
    (lambda: linalg.dft_multiport(-HUGE),
     "port count must be an integer of at least 2, got below -2**16609"),
    (lambda: SuperposedState([], -HUGE), "n_ports must be an integer of at least 1, got below"),
    (lambda: FockState.from_counts([((HUGE, H), 1)], 4),
     "port over 2**16609 out of range for 4 ports"),
    (lambda: FockState.from_counts([((0, H), -HUGE)], 4),
     "negative photon count below -2**16609 for mode Mode(port=0, "),
    (lambda: CoincidencePattern.port_counts({-HUGE: 1}), "port below -2**16609 is negative"),
    (lambda: CoincidencePattern.port_counts({0: -HUGE}),
     "required count below -2**16609 for port 0 is negative"),
    (lambda: CoincidencePattern.port_counts({HUGE: -1}),
     "required count -1 for port over 2**16609 is negative"),
    (lambda: postselect(w_state_path(3), CoincidencePattern.port_counts({HUGE: 1})),
     "pattern references port over 2**16609, device has 3"),
    (lambda: evolve(np.eye(2), FockState(HUGE, (1, 0), (0, 0))),
     "matrix is 2x2 but state has over 2**16609 ports"),
], ids=["dft_multiport", "SuperposedState", "from_counts port", "from_counts count",
        "port_counts port", "port_counts count", "port_counts count huge port", "mask port",
        "evolve n_ports"])
def test_huge_integers_written_by_bit_length(run, message):
    with pytest.raises(ValueError) as info:
        run()
    assert type(info.value) is ValueError and str(info.value).startswith(message)


@pytest.mark.parametrize("value, text", [
    (5, "5"), (-3, "-3"), (2**1000 - 1, str(2**1000 - 1)), (2**1000, "over 2**1000"),
    (-(2**1000), "below -2**1000"), (np.int64(7), repr(np.int64(7))), (2.5, "2.5"),
    (True, "True"), (None, "None"), ("3", "'3'"),
])
def test_int_text(value, text):
    assert int_text(value) == text


@pytest.mark.parametrize("text, message", [
    ('{"nPorts": 2, "occ": [{"port": 1%s, "pol": "H", "count": 1}]}',
     "port over 2**13287 out of range for 2 ports"),
    ('{"nPorts": 1%s, "occ": []}', "matrix is 2x2 but state has over 2**13287 ports"),
], ids=["port", "nPorts"])
def test_cli_state_file_with_a_4001_digit_integer(text, message, tmp_path, capsys):
    matrix, state = tmp_path / "m.json", tmp_path / "s.json"
    linalg.write_matrix(matrix, linalg.dft_multiport(2))
    state.write_text(text % ("0" * 4000))
    assert main(["evolve", "--matrix", str(matrix), "--input", str(state)], io.StringIO()) \
        == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err and len(err) < 200
