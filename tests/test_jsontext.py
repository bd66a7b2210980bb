"""Templated report JSON must be byte-identical to the stdlib indent encoder.

The reference is the tree-plus-encoder path the package used to write:
``json.dumps(obj.to_json_obj(), indent=2) + "\\n"``.
"""
import io
import json
import math
import random

import numpy as np
import pytest

from wstategen import jsontext, linalg
from wstategen.cli import main
from wstategen.fock import FockState, SuperposedState
from wstategen.postselect import CoincidencePattern, postselect
from wstategen.schemes import SchemeReport, run_designed_path, run_path_w, run_polarization_w

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 1e308, -1e308, 1.0, -1.0]


def _reference_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


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


def _states() -> list[SuperposedState]:
    rng = random.Random(20020826)
    states = [_random_state(rng, rng.randint(1, 6), (rng.randint(0, 4), rng.randint(0, 3)),
                            rng.randint(1, 12)) for _ in range(40)]
    states += [
        _edge_state(),
        _random_state(rng, 1, (12, 10), 1),  # one port, counts >= 10
        _random_state(rng, 1, (0, 0), 1),  # one port, vacuum
        SuperposedState({FockState(4, (0,) * 4, (0,) * 4): 1.0}, 4),  # "occ": []
        SuperposedState({}, 2, require_normalized=False),  # "terms": []
        SuperposedState({}, 1, require_normalized=False),
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
    assert jsontext.dumps(state.json_frame()) == _reference_text(state.to_json_obj())


def _written_floats(text: str) -> set[str]:
    return {line.strip().rstrip(",") for line in text.splitlines()}


def test_edge_values_reach_the_templates():
    """Every edge float is written by a template; -0.0 only by the matrix one,
    because a state adds each amplitude to 0.0 on construction, which makes -0.0 0.0."""
    edges = {float.__repr__(x) for x in EDGE_FLOATS}
    state_text = jsontext.dumps(_edge_state().json_frame())
    assert edges - _written_floats(state_text) == {"-0.0"}
    matrix_text = jsontext.dumps(linalg.matrix_json_frame(_matrices()[-2]))
    assert edges - _written_floats(matrix_text) == {"1.0", "-1.0"}


@pytest.mark.parametrize("m", _matrices(), ids=lambda m: f"{m.shape[0]}x{m.shape[0]}")
def test_matrix_text_matches_indent_encoder(m, tmp_path):
    expected = _reference_text(linalg.matrix_to_json_obj(m))
    assert jsontext.dumps(linalg.matrix_json_frame(m)) == expected
    path = tmp_path / "m.json"
    linalg.write_matrix(path, m)
    assert path.read_text() == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_write_matrix_rejects_non_finite_entries(bad, tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="non-finite"):
        linalg.write_matrix(path, np.array([[1.0, 0.0], [0.0, bad]]))
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
    assert report.to_json() == _reference_text(report.to_json_obj())


def test_templates_indent_by_nesting_depth():
    state = _random_state(random.Random(9), 3, (2, 1), 4)
    frame = {"a": [{"b": state.json_frame()}, [linalg.matrix_json_frame(np.eye(2))]],
             "empty": [SuperposedState({}, 1, require_normalized=False).json_frame(), {}, ()],
             "scalars": [None, True, "x", 3, -0.0, (1, [2])]}
    assert jsontext.dumps(frame) == _reference_text(jsontext.expand(frame))


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
