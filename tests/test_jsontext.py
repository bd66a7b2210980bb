"""Templated report JSON must be byte-identical to the stdlib indent encoder.

The reference is ``json.dumps(tree, indent=2) + "\\n"`` for a tree built
here from public reads only: ``FockState.to_json_obj()`` and ``[amp.real,
amp.imag]`` of each iterated term of a state, ``float`` of the parts of
each flattened matrix entry, and the fields of a post-selection result or
report. ``to_json_obj()`` is the parse of the package's text, so each
fixture's tree must also equal its reference tree.
"""
import io
import json
import math
import random

import numpy as np
import pytest

from wstategen import jsontext, linalg
from wstategen.cli import main
from wstategen.evolve import evolve
from wstategen.fock import _BLOCK, FockState, Product, SuperposedState
from wstategen.postselect import CoincidencePattern, PostSelectionResult, postselect
from wstategen.schemes import SchemeReport, run_designed_path, run_path_w, run_polarization_w

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 1e308, -1e308, 1.0, -1.0]


def _reference_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _state_tree(state: SuperposedState) -> dict:
    return {"nPorts": state.n_ports,
            "terms": [{"state": s.to_json_obj(), "amp": [amp.real, amp.imag]}
                      for s, amp in state]}


def _matrix_tree(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"n": a.shape[0], "entries": [[float(z.real), float(z.imag)] for z in a.ravel()]}


def _result_tree(result: PostSelectionResult) -> dict:
    return {"probability": result.probability,
            "droppedProbability": result.dropped_probability,
            "keptTerms": result.kept_terms,
            "conditional": _state_tree(result.conditional)}


def _report_tree(report: SchemeReport) -> dict:
    tree = {"schemeKind": report.scheme_kind,
            "n": report.n,
            "unitaryUsed": _matrix_tree(report.unitary_used),
            "outputState": _state_tree(report.output_state),
            "postSelection": (_result_tree(report.post_selection)
                              if report.post_selection else None),
            "fidelityToTarget": report.fidelity_to_target,
            "successProbability": report.success_probability}
    if report.port_probabilities is not None:
        tree["portProbabilities"] = list(report.port_probabilities)
    if report.probability_uniform is not None:
        tree["probabilityUniform"] = report.probability_uniform
    if report.reference_note is not None:
        tree["referenceNote"] = report.reference_note
    return tree


def _random_state(rng: random.Random, n_ports: int, photons: tuple[int, int],
                  n_terms: int) -> SuperposedState:
    """Unnormalized superposition of random Fock states with ``photons`` (H, V) photons."""
    terms = {}
    for _ in range(n_terms):
        vecs = []
        for total in photons:
            counts = [0] * n_ports
            for _ in range(total):
                counts[rng.randrange(n_ports)] += 1
            vecs.append(tuple(counts))
        terms[FockState(n_ports, *vecs)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return SuperposedState(terms, n_ports, require_normalized=False)


def _edge_state() -> SuperposedState:
    """Every pair of edge floats that survives pruning, one term each, counts up to 13."""
    amps = [complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS
            if abs(complex(re, im)) >= 1e-12]
    states = [FockState(3, (h0, h1, 13 - h0 - h1), (0, 0, 11))
              for h0 in range(14) for h1 in range(14 - h0)]
    assert len(states) >= len(amps)
    return SuperposedState(dict(zip(states, amps)), 3, require_normalized=False)


def _table_state(rows: list[list[int]], seed: int) -> SuperposedState:
    """Unnormalized state of the given occupation rows, which ``Product`` does not check
    for order or equal photon totals, so vacuum rows may follow occupied ones."""
    rng = random.Random(seed)
    amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in rows]
    table = np.array(rows, dtype=np.int64)
    return SuperposedState(Product((table, amps)), table.shape[1] // 2, require_normalized=False)


def _states() -> list[SuperposedState]:
    rng = random.Random(20020826)
    states = [_random_state(rng, rng.randint(1, 6), (rng.randint(0, 4), rng.randint(0, 3)),
                            rng.randint(1, 12)) for _ in range(40)]
    # A bunched DFT_5 input: evolve gives an int8 table.
    bunched = FockState(5, (2, 0, 1, 0, 0), (0, 1, 0, 1, 0))
    evolved = evolve(linalg.dft_multiport(5), bunched)
    assert evolved.occupations.dtype == np.int8
    occupied = [[i % 5 + 1, i // 5, 0, 1] for i in range(_BLOCK + 3)]
    states += [
        _edge_state(),
        _random_state(rng, 1, (12, 10), 1),  # one port, counts >= 10
        _random_state(rng, 1, (0, 0), 1),  # one port, vacuum
        SuperposedState({FockState(4, (0,) * 4, (0,) * 4): 1.0}, 4),  # "occ": []
        SuperposedState({}, 2, require_normalized=False),  # "terms": []
        SuperposedState({}, 1, require_normalized=False),
        # Two-digit ports.
        _random_state(rng, 10, (3, 2), 15),
        _random_state(rng, 13, (5, 0), 12),
        _random_state(rng, 16, (4, 3), 20),
        # Counts >= 10 on two or more ports, in both polarizations.
        SuperposedState({FockState(4, (10, 0, 12, 0), (0, 11, 0, 10)): 0.6,
                         FockState(4, (12, 10, 0, 0), (10, 0, 0, 11)): 0.8j}, 4),
        _random_state(rng, 3, (30, 25), 6),
        # Only V photons in every row.
        _random_state(rng, 5, (0, 4), 10),
        # Counts too large to key by value, so the writer keys their ranks.
        SuperposedState({FockState(2, (2**62, 5), (0, 2**40)): 0.6,
                         FockState(2, (5, 2**62), (2**40, 0)): 0.8}, 2),
        # Vacuum rows after occupied ones, and one opening the second block.
        _table_state([[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0]], 1),
        _table_state(occupied[:_BLOCK] + [[0, 0, 0, 0]] + occupied[_BLOCK:], 2),
        evolved,
        # A row-masked copy of the int8 table.
        postselect(evolved, CoincidencePattern.one_per_port()).conditional,
        # More rows than one block: int8, one V photon.
        run_polarization_w(6).output_state,
    ]
    return states


def _matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(20020826)
    mats = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in range(1, 7)]
    mats += [rng.normal(size=(3, 3)), linalg.dft_multiport(5), linalg.canonical_quarter(),
             np.zeros((0, 0))]
    edges = np.array(EDGE_FLOATS[:9])
    mats.append((edges + 1j * edges[::-1]).reshape(3, 3))
    mats.append(np.array([[complex(-0.0, -0.0)]]))
    return mats


@pytest.mark.parametrize("state", _states(), ids=lambda s: f"{s.n_ports}ports-{len(s)}terms")
def test_state_text_matches_indent_encoder(state):
    reference = _state_tree(state)
    assert jsontext.dumps(state.json_frame()) == _reference_text(reference)
    assert state.to_json_obj() == reference


def _written_floats(text: str) -> set[str]:
    return {line.strip().rstrip(",") for line in text.splitlines()}


def test_edge_values_reach_the_templates():
    """Every edge float is written by a chunk writer; -0.0 only by the matrix one,
    because a state adds each amplitude to 0.0 on construction, which makes -0.0 0.0."""
    edges = {float.__repr__(x) for x in EDGE_FLOATS}
    state_text = jsontext.dumps(_edge_state().json_frame())
    assert edges - _written_floats(state_text) == {"-0.0"}
    matrix_text = jsontext.dumps(linalg.matrix_json_frame(_matrices()[-2]))
    assert edges - _written_floats(matrix_text) == {"1.0", "-1.0"}


@pytest.mark.parametrize("m", _matrices(), ids=lambda m: f"{m.shape[0]}x{m.shape[0]}")
def test_matrix_text_matches_indent_encoder(m, tmp_path):
    reference = _matrix_tree(m)
    expected = _reference_text(reference)
    assert jsontext.dumps(linalg.matrix_json_frame(m)) == expected
    assert linalg.matrix_to_json_obj(m) == reference
    path = tmp_path / "m.json"
    linalg.write_matrix(path, m)
    assert path.read_text() == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_write_matrix_rejects_non_finite_entries(bad, tmp_path):
    path = tmp_path / "m.json"
    m = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="non-finite"):
        linalg.write_matrix(path, m)
    assert not path.exists()
    with pytest.raises(ValueError, match="non-finite"):
        linalg.matrix_to_json_obj(m)


@pytest.mark.parametrize("m", [np.ones((2, 3)), np.array([1.0, 2.0])], ids=["2x3", "vector"])
def test_matrix_json_refuses_non_square_arrays(m, tmp_path):
    """The tree, the text and the file refuse what ``matrix_from_json_obj`` cannot read."""
    path = tmp_path / "m.json"
    for write in (linalg.matrix_to_json_obj, linalg.matrix_json_frame,
                  lambda a: linalg.write_matrix(path, a)):
        with pytest.raises(ValueError, match="not square"):
            write(m)
    assert not path.exists()


def _reports() -> list[SchemeReport]:
    clone = np.array([math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)])
    reports = [run_polarization_w(n) for n in (2, 3, 6)]
    reports += [run_path_w(5, 2), run_designed_path(clone)]
    state = _edge_state()
    reports.append(SchemeReport(
        scheme_kind="designed-path",
        n=3,
        unitary_used=_matrices()[-2],
        output_state=state,
        post_selection=postselect(_random_state(random.Random(5), 3, (2, 1), 9),
                                  CoincidencePattern.one_per_port()),
        fidelity_to_target=5e-324,
        success_probability=0.1 + 0.2,
        port_probabilities=(np.float64(0.1), np.float64(-0.0), 1e16),
        probability_uniform=False,
        reference_note="é \"quoted\"\n",
    ))
    return reports


@pytest.mark.parametrize("report", _reports(), ids=lambda r: f"{r.scheme_kind}-{r.n}")
def test_report_text_matches_indent_encoder(report):
    reference = _report_tree(report)
    assert report.to_json() == _reference_text(reference)
    assert report.to_json_obj() == reference


@pytest.mark.parametrize("result", [r.post_selection for r in _reports() if r.post_selection],
                         ids=lambda r: f"{r.kept_terms}kept")
def test_post_selection_text_matches_indent_encoder(result):
    reference = _result_tree(result)
    assert jsontext.dumps(result.json_frame()) == _reference_text(reference)
    assert result.to_json_obj() == reference


def test_templates_indent_by_nesting_depth():
    state = _random_state(random.Random(9), 3, (2, 1), 4)
    empty = SuperposedState({}, 1, require_normalized=False)
    scalars = [None, True, "x", 3, -0.0, (1, [2])]
    frame = {"a": [{"b": state.json_frame()}, [linalg.matrix_json_frame(np.eye(2))]],
             "empty": [empty.json_frame(), {}, ()],
             "scalars": scalars}
    reference = {"a": [{"b": _state_tree(state)}, [_matrix_tree(np.eye(2))]],
                 "empty": [_state_tree(empty), {}, ()],
                 "scalars": scalars}
    assert jsontext.dumps(frame) == _reference_text(reference)


@pytest.mark.parametrize("argv", [
    ["polar-w", "--n", "5", "--format", "json"],
    ["path-w", "--n", "7", "--input-port", "3", "--format", "json"],
])
def test_cli_json_round_trips_through_indent_encoder(argv):
    stream = io.StringIO()
    assert main(argv, stream) == 0
    text = stream.getvalue()
    assert _reference_text(json.loads(text)) == text


def test_cli_evolve_json_round_trips_through_indent_encoder(tmp_path):
    matrix, state = tmp_path / "m.json", tmp_path / "s.json"
    linalg.write_matrix(matrix, linalg.dft_multiport(4))
    state.write_text(json.dumps({"nPorts": 4, "occ": [
        {"port": 0, "pol": "H", "count": 2}, {"port": 2, "pol": "V", "count": 2}]}))
    stream = io.StringIO()
    assert main(["evolve", "--matrix", str(matrix), "--input", str(state),
                 "--postselect", "one-per-port", "--format", "json"], stream) == 0
    text = stream.getvalue()
    assert _reference_text(json.loads(text)) == text
