import argparse
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wstategen
from wstategen import cli, linalg, schemes
from wstategen.cli import RATIONAL_TOL, main, rational_note, rational_notes
from wstategen.errors import NumericalError
from wstategen.evolve import evolve
from wstategen.fock import FockState, Polarization, product_input

H, V = Polarization.H, Polarization.V


def run_cli(*argv):
    stream = io.StringIO()
    code = main(list(argv), stream)
    return code, stream.getvalue()


class TestMultiport:
    def test_writes_tritter(self, tmp_path):
        out = tmp_path / "tritter.json"
        code, _ = run_cli("multiport", "--n", "3", "--out", str(out))
        assert code == 0
        u = linalg.read_matrix(out)
        assert np.max(np.abs(u - linalg.dft_multiport(3))) <= 1e-15

    def test_n1_rejected(self, tmp_path):
        code, _ = run_cli("multiport", "--n", "1", "--out", str(tmp_path / "m.json"))
        assert code == 2

    def test_unwritable_path(self):
        code, _ = run_cli("multiport", "--n", "3", "--out", "/nonexistent/dir/m.json")
        assert code == 2

    def test_memory_error_exits_3(self, monkeypatch, tmp_path, capsys):
        def no_memory(n):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(linalg, "dft_multiport", no_memory)
        code, text = run_cli("multiport", "--n", "100000", "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert text == ""
        assert "capacity exceeded: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_module_run_as_script():
    env = dict(os.environ, PYTHONPATH=str(Path(wstategen.__file__).parents[1]))
    for module in ("wstategen.cli", "wstategen"):
        done = subprocess.run([sys.executable, "-m", module, "polar-w", "--n", "3",
                               "--format", "csv"], capture_output=True, text=True, env=env)
        assert done.returncode == 0, (module, done.stderr)
        assert "successProbability,0.111111111111" in done.stdout.splitlines(), module


def test_bunched_csv_run_does_not_import_numpy_ma(tmp_path):
    """16 H photons at port 0 of DFT_2 write their kets from a lookup held by rank, whose
    sorted distinct keys numpy 2's ``np.unique`` would take by a hash path that imports
    ``numpy.ma`` (19-32 ms) on its first call in a process."""
    (tmp_path / "h16.json").write_text(
        '{"nPorts": 2, "occ": [{"port": 0, "pol": "H", "count": 16}]}')
    script = (
        "import sys\n"
        "from wstategen.cli import main\n"
        "assert main(['multiport', '--n', '2', '--out', 'd2.json']) == 0\n"
        "assert main(['evolve', '--matrix', 'd2.json', '--input', 'h16.json',"
        " '--format', 'csv']) == 0\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wstategen.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert sum(line.startswith("|H") for line in done.stdout.splitlines()) == 17
    assert done.stderr == "False\n"


class TestPathW:
    def test_json_report(self):
        code, text = run_cli("path-w", "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(text)
        probs = obj["portProbabilities"]
        assert len(probs) == 3
        assert all(abs(p - 1 / 3) <= 1e-12 for p in probs)
        assert obj["successProbability"] == 1.0

    def test_csv_rows(self):
        code, text = run_cli("path-w", "--n", "8", "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "port,probability"
        assert len(lines) == 9
        for port, line in enumerate(lines[1:]):
            assert line == f"{port},0.125"

    def test_bad_port(self):
        code, _ = run_cli("path-w", "--n", "3", "--input-port", "9")
        assert code == 2

    def test_json_round_trips(self):
        _, text = run_cli("path-w", "--n", "3", "--format", "json")
        reparsed = json.dumps(json.loads(text), indent=2) + "\n"
        assert reparsed == text


class TestPolarW:
    def test_n3_table(self):
        code, text = run_cli("polar-w", "--n", "3")
        assert code == 0
        assert "0.111111111111 (= 1/9)" in text
        assert "fidelityToTarget: 1" in text

    def test_n4_csv(self):
        code, text = run_cli("polar-w", "--n", "4", "--format", "csv")
        assert code == 0
        assert "successProbability,0.0625" in text
        assert "fidelityToTarget,1" in text

    def test_capacity_exit(self):
        code, _ = run_cli("polar-w", "--n", "30")
        assert code == 3

    def test_output_term_cap_exit(self, capsys):
        # 11 H + 1 V photons over 12 ports: 8,465,184 output terms.
        code, text = run_cli("polar-w", "--n", "12")
        assert code == 3
        assert text == ""
        assert "8465184 output terms" in capsys.readouterr().err

    def test_fidelity_failure_exits_3(self, monkeypatch, capsys):
        def broken_fidelity(state, target):
            raise NumericalError("fidelity 1.5 exceeds 1: a state is not normalized")

        monkeypatch.setattr(schemes, "fidelity", broken_fidelity)
        code, text = run_cli("polar-w", "--n", "3")
        assert code == 3
        assert text == ""
        assert "fidelity 1.5 exceeds 1" in capsys.readouterr().err


class TestDesign:
    def test_clone_target(self, tmp_path):
        target = [math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)]
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps([[x, 0.0] for x in target]))
        out = tmp_path / "u.json"
        code, text = run_cli("design", "--target", str(target_path), "--out", str(out))
        assert code == 0
        assert "column match: PASS" in text
        assert "unitarity: PASS" in text
        u = linalg.read_matrix(out)
        assert np.max(np.abs(u[:, 0] - np.array(target))) <= 1e-10

    def test_random_target(self, tmp_path):
        rng = np.random.default_rng(17)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps([[z.real, z.imag] for z in v]))
        out = tmp_path / "u.json"
        code, text = run_cli("design", "--target", str(target_path), "--out", str(out))
        assert code == 0
        assert text.count("PASS") == 2

    def test_unnormalized_target(self, tmp_path):
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps([[1.0, 0.0], [1.0, 0.0]]))
        code, _ = run_cli("design", "--target", str(target_path), "--out",
                          str(tmp_path / "u.json"))
        assert code == 2

    def test_failed_verification_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linalg, "verify_unitary", lambda m: False)
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps([[0.6, 0.0], [0.8, 0.0]]))
        out = tmp_path / "u.json"
        code, text = run_cli("design", "--target", str(target_path), "--out", str(out))
        assert code == 3
        assert text == "column match: PASS\nunitarity: FAIL\n"
        assert not out.exists()

    def test_input_file_untouched(self, tmp_path):
        target_path = tmp_path / "target.json"
        content = json.dumps([[1.0, 0.0], [0.0, 0.0]])
        target_path.write_text(content)
        run_cli("design", "--target", str(target_path), "--out", str(tmp_path / "u.json"))
        assert target_path.read_text() == content


class TestEvolve:
    @pytest.fixture
    def tritter_path(self, tmp_path):
        path = tmp_path / "tritter.json"
        linalg.write_matrix(path, linalg.dft_multiport(3))
        return str(path)

    @pytest.fixture
    def scheme2_path(self, tmp_path):
        state = product_input([(0, H), (1, H), (2, V)], 3)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(state.to_json_obj()))
        return str(path)

    def test_scheme2_with_postselect(self, tritter_path, scheme2_path):
        code, text = run_cli(
            "evolve", "--matrix", tritter_path, "--input", scheme2_path,
            "--postselect", "one-per-port", "--format", "json",
        )
        assert code == 0
        obj = json.loads(text)
        assert len(obj["output"]["terms"]) == 18
        assert abs(obj["postSelection"]["probability"] - 1 / 9) <= 1e-9
        assert obj["postSelection"]["keptTerms"] == 3

    def test_identity_echoes_input(self, tmp_path, scheme2_path):
        matrix_path = tmp_path / "id.json"
        linalg.write_matrix(matrix_path, np.eye(3))
        code, text = run_cli(
            "evolve", "--matrix", str(matrix_path), "--input", scheme2_path,
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(text)
        assert len(obj["output"]["terms"]) == 1
        assert obj["output"]["terms"][0]["amp"] == [1.0, 0.0]

    def test_hom_zero_probability(self, tmp_path):
        matrix_path = tmp_path / "bs.json"
        linalg.write_matrix(matrix_path, linalg.dft_multiport(2))
        input_path = tmp_path / "pair.json"
        input_path.write_text(
            json.dumps(product_input([(0, H), (1, H)], 2).to_json_obj())
        )
        code, text = run_cli(
            "evolve", "--matrix", str(matrix_path), "--input", str(input_path),
            "--postselect", "one-per-port", "--format", "json",
        )
        assert code == 0
        obj = json.loads(text)
        assert obj["postSelection"]["probability"] == 0.0

    def test_non_unitary_matrix(self, tmp_path, scheme2_path):
        matrix_path = tmp_path / "bad.json"
        linalg.write_matrix(matrix_path, np.ones((3, 3)))
        code, _ = run_cli("evolve", "--matrix", str(matrix_path),
                          "--input", scheme2_path)
        assert code == 3

    def test_unnormalized_output_exits_3(self, tmp_path, scheme2_path, monkeypatch, capsys):
        # With the unitarity checks bypassed, the state assembled from
        # np.ones((3, 3)) fails its normalization check instead.
        always = lambda m: True  # noqa: E731
        monkeypatch.setattr(linalg, "verify_unitary", always)
        # The package re-exports the function evolve, which shadows the module name.
        evolve_module = importlib.import_module("wstategen.evolve")
        monkeypatch.setattr(evolve_module, "verify_unitary", always)
        matrix_path = tmp_path / "bad.json"
        linalg.write_matrix(matrix_path, np.ones((3, 3)))
        code, _ = run_cli("evolve", "--matrix", str(matrix_path),
                          "--input", scheme2_path)
        assert code == 3
        assert "not normalized" in capsys.readouterr().err

    def test_state_ports_checked_before_the_state_is_built(self, tritter_path, tmp_path,
                                                           monkeypatch, capsys):
        # 35 bytes that would have from_counts allocate about 6 GB.
        def no_build(cls, counts, n_ports):
            raise AssertionError("state built before its port count was checked")

        monkeypatch.setattr(FockState, "from_counts", classmethod(no_build))
        input_path = tmp_path / "input.json"
        input_path.write_text('{"nPorts": 200000000, "occ": []}')
        code, text = run_cli("evolve", "--matrix", tritter_path, "--input", str(input_path))
        assert (code, text) == (2, "")
        assert "matrix is 3x3 but state has 200000000 ports" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--matrix", "--input", "--target"])
    def test_json_nested_too_deep_exits_2(self, flag, tritter_path, scheme2_path,
                                          tmp_path, capsys):
        # Valid JSON that json.load cannot parse; json.dumps cannot write it either.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        if flag == "--target":
            argv = ["design", "--target", str(deep), "--out", str(tmp_path / "u.json")]
        else:
            paths = {"--matrix": tritter_path, "--input": scheme2_path, flag: str(deep)}
            argv = ["evolve", "--matrix", paths["--matrix"], "--input", paths["--input"]]
        assert run_cli(*argv) == (2, "")
        assert "error: cannot read" in capsys.readouterr().err

    def test_non_integer_count_exits_2(self, tritter_path, tmp_path, capsys):
        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(
            {"nPorts": 3, "occ": [{"port": 0, "pol": "H", "count": 1.5}]}))
        code, _ = run_cli("evolve", "--matrix", tritter_path,
                          "--input", str(input_path))
        assert code == 2
        assert "cannot read input state" in capsys.readouterr().err

    def test_4001_digit_count_exits_3(self, tritter_path, tmp_path, capsys):
        # Over the photon cap; the message writes the 4,001-digit count by its bit length.
        input_path = tmp_path / "input.json"
        input_path.write_text(
            f'{{"nPorts": 3, "occ": [{{"port": 0, "pol": "H", "count": 1{"0" * 4000}}}]}}')
        code, text = run_cli("evolve", "--matrix", tritter_path, "--input", str(input_path))
        assert code == 3
        assert text == ""
        assert "capacity exceeded: over 2**13287 H and 0 V photons" in capsys.readouterr().err

    def test_boolean_count_exits_2(self, tritter_path, tmp_path, capsys):
        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(
            {"nPorts": 3, "occ": [{"port": 0, "pol": "H", "count": True}]}))
        code, _ = run_cli("evolve", "--matrix", tritter_path,
                          "--input", str(input_path))
        assert code == 2
        assert "cannot read input state" in capsys.readouterr().err

    def test_unparsable_matrix(self, tmp_path, scheme2_path):
        matrix_path = tmp_path / "garbage.json"
        matrix_path.write_text("not json")
        code, _ = run_cli("evolve", "--matrix", str(matrix_path),
                          "--input", scheme2_path)
        assert code == 2


def _small_fractions() -> np.ndarray:
    """Every p/q in [0, 1] with q <= 64, as floats."""
    return np.unique([p / q for q in range(1, 65) for p in range(q + 1)])


def _steps(x: np.ndarray, count: int) -> np.ndarray:
    """``x`` and its ``count`` nearest floats on either side, flattened."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def _dft_probabilities(n: int) -> list[float]:
    """Term probabilities of DFT_n on a one-per-port and on a bunched input."""
    inputs = [[(p, H) for p in range(n - 1)] + [(n - 1, V)], [(0, H), (0, H), (n - 1, V)]]
    return [float(Fraction(abs(amp)) ** 2) for photons in inputs
            for _, amp in evolve(linalg.dft_multiport(n), product_input(photons, n))]


def _assert_notes_match(values) -> None:
    values = [float(x) for x in values]
    assert rational_notes(values) == [rational_note(x) for x in values]


class TestRationalNotes:
    def test_direct_notes(self):
        assert rational_note(1 / 9) == " (= 1/9)"
        assert rational_note(1 / 65) == ""
        assert rational_note(0.5 + 5e-13) == " (= 1/2)"
        assert rational_note(0.5 + 2e-12) == ""
        assert rational_note(0.0) == rational_note(1.0) == ""

    def test_small_fractions(self):
        fracs = _small_fractions()
        assert len(fracs) == 1261  # the Farey sequence of order 64
        _assert_notes_match(fracs)
        assert rational_notes([17 / 64, -17 / 64]) == [" (= 17/64)", " (= -17/64)"]

    def test_fractions_shifted_near_the_tolerance(self):
        fracs = _small_fractions()
        shifts = np.array([-2, -1, -0.5, 0.5, 1, 2]) * 1e-12
        _assert_notes_match((fracs[:, None] + shifts).ravel())
        edges = _steps(np.concatenate([fracs - RATIONAL_TOL, fracs + RATIONAL_TOL]), 4)
        notes = rational_notes(edges.tolist())
        # Both sides of the edge occur, so the screen is tested where it decides.
        assert "" in notes and any(notes)
        _assert_notes_match(edges)

    def test_edge_values(self):
        _assert_notes_match([0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-13, 1 + 1e-15, 1 - 1e-15,
                             -1.0, -0.5, -1 / 3 + 1e-12, -1 / 7 - 3e-12, 1.5, 7 / 3, 1e15 + 0.5,
                             -65 / 64, 1e300, -1e300, np.finfo(float).max])
        assert rational_notes([]) == []

    def test_values_next_to_an_integer_skip_the_exact_test(self, monkeypatch):
        values = [1e-13, -1e-13, 1 - 1e-13, 2 / 27, 17 / 64]
        expected = [rational_note(x) for x in values]
        tested = []

        def counting(x):
            tested.append(x)
            return rational_note(x)

        monkeypatch.setattr(cli, "rational_note", counting)
        assert rational_notes(values) == expected == ["", "", "", " (= 2/27)", " (= 17/64)"]
        assert tested == [2 / 27, 17 / 64]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_as_the_exact_note(self, bad):
        with pytest.raises(Exception) as exact:
            rational_note(bad)
        with pytest.raises(exact.type):
            rational_notes([0.5, bad])

    def test_seeded_random(self):
        rng = np.random.default_rng(1207)
        _assert_notes_match(np.concatenate([rng.random(10_000), rng.uniform(-2, 2, 100)]))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_dft_probabilities(self, n):
        _assert_notes_match(_dft_probabilities(n))


class TestArgparseBehaviour:
    def test_unknown_command(self):
        assert main(["frobnicate"], io.StringIO()) == 2

    def test_missing_required_flag(self):
        assert main(["path-w"], io.StringIO()) == 2


class TestParserReuse:
    def test_second_call_builds_no_parser(self, monkeypatch):
        assert run_cli("path-w", "--n", "2")[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli("polar-w", "--n", "3", "--format", "csv")[0] == 0
        assert built == []

    def test_no_state_leaks_between_calls(self, capsys):
        csv = run_cli("path-w", "--n", "4", "--format", "csv")
        table = run_cli("path-w", "--n", "4")
        assert csv[0] == table[0] == 0
        assert csv[1].startswith("port,probability\n")
        assert table[1].startswith("path-W scheme, n=4")
        assert run_cli("path-w", "--n", "4", "--input-port", "x") == (2, "")
        assert run_cli("path-w") == (2, "")
        assert run_cli("path-w", "--n", "4", "--input-port", "3")[0] == 0
        assert run_cli("path-w", "--n", "4") == table
        capsys.readouterr()
        assert run_cli("--help") == (0, "")
        assert "usage: wstategen" in capsys.readouterr().out
        assert run_cli("evolve", "--help") == (0, "")
        assert "--postselect" in capsys.readouterr().out
        assert run_cli("polar-w", "--n", "3", "--format", "csv") == \
            run_cli("polar-w", "--format", "csv", "--n", "3")


# Entries of the [re, im] format that are not pairs of finite numbers.
BAD_ENTRIES = {
    "bool": [[True, False]],
    "string": [["1", 0]],
    "scalar": [1],
    "triple": [[1, 0, 9]],
    "null": [[None, 0]],
    "401 digits": [[10**400, 0]],
}


class TestPairInput:
    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_design_target_exits_2(self, bad, tmp_path, capsys):
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps(BAD_ENTRIES[bad] + [[0, 0]]))
        out = tmp_path / "u.json"
        code, text = run_cli("design", "--target", str(target_path), "--out", str(out))
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "cannot read target vector" in err
        assert "target vector must be a list of [re, im] pairs" in err
        assert not out.exists()

    def test_bool_target_from_json_text_exits_2(self, tmp_path):
        target_path = tmp_path / "target.json"
        target_path.write_text("[[true, false], [false, false]]")
        out = tmp_path / "u.json"
        assert run_cli("design", "--target", str(target_path), "--out", str(out))[0] == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_evolve_matrix_exits_2(self, bad, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(json.dumps({"n": 1, "entries": BAD_ENTRIES[bad]}))
        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(product_input([(0, H)], 1).to_json_obj()))
        code, text = run_cli("evolve", "--matrix", str(matrix_path), "--input", str(input_path))
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "cannot read matrix" in err
        assert "matrix JSON entries must be a list of [re, im] pairs" in err
