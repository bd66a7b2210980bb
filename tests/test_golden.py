"""Golden report bytes: refactors must leave every report byte-identical.

Each case produces the exact text of a scheme report or of a CLI run;
its sha256 must equal the one recorded in ``golden/reports.sha256.json``.
A deliberate change of report bytes regenerates that file with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/reports.sha256.json
"""
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wstategen import linalg
from wstategen.cli import main
from wstategen.schemes import run_designed_path, run_path_w, run_polarization_w

GOLDEN = Path(__file__).parent / "golden" / "reports.sha256.json"

FORMATS = ("json", "csv", "table")

# Bunched DFT_5 input: two H photons share port 0, both sectors populated.
EVOLVE_INPUT = {
    "nPorts": 5,
    "occ": [
        {"port": 0, "pol": "H", "count": 2},
        {"port": 1, "pol": "H", "count": 1},
        {"port": 3, "pol": "V", "count": 1},
        {"port": 4, "pol": "V", "count": 1},
    ],
}

# Bunched DFT_4 input: two H photons at port 0, V photons at ports 2 and 3.
# Its table notes 52 term probabilities and the post-selection probability
# as exact fractions, and leaves 1/128 (denominator above 64) bare.
EVOLVE_DFT4_INPUT = {
    "nPorts": 4,
    "occ": [
        {"port": 0, "pol": "H", "count": 2},
        {"port": 2, "pol": "V", "count": 1},
        {"port": 3, "pol": "V", "count": 1},
    ],
}

# Householder coupler from ``design`` on a fixed 6-entry target, with a
# bunched 3 H + 3 V input: a dense output of 56 x 56 = 3,136 terms, none
# pruned, of which 20 pass the one-per-port post-selection.
DESIGN6_RAW = [1.0, 0.5 + 1.0j, -0.75 + 0.25j, 0.3 - 0.6j, -0.2 - 0.4j, 0.9 + 0.1j]
DESIGN6_TARGET = [[z.real / math.sqrt(sum(abs(w) ** 2 for w in DESIGN6_RAW)),
                   z.imag / math.sqrt(sum(abs(w) ** 2 for w in DESIGN6_RAW))]
                  for z in map(complex, DESIGN6_RAW)]
EVOLVE_DESIGN6_INPUT = {
    "nPorts": 6,
    "occ": [
        {"port": 0, "pol": "H", "count": 2},
        {"port": 1, "pol": "H", "count": 1},
        {"port": 3, "pol": "V", "count": 1},
        {"port": 5, "pol": "V", "count": 2},
    ],
}


def _cli_text(argv: list[str]) -> str:
    stream = io.StringIO()
    assert main(argv, stream) == 0
    return stream.getvalue()


def _evolve_text(fmt: str, n: int = 5, input_state: dict = EVOLVE_INPUT,
                 target: list | None = None) -> str:
    """CLI ``evolve`` text on DFT_n, or on the ``design`` output for ``target`` if given."""
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "coupler.json"
        state = Path(tmp) / "input.json"
        if target is None:
            linalg.write_matrix(matrix, linalg.dft_multiport(n))
        else:
            target_path = Path(tmp) / "target.json"
            target_path.write_text(json.dumps(target))
            _cli_text(["design", "--target", str(target_path), "--out", str(matrix)])
        state.write_text(json.dumps(input_state))
        return _cli_text(["evolve", "--matrix", str(matrix), "--input", str(state),
                          "--postselect", "one-per-port", "--format", fmt])


def _cli_file_text(argv: list[str], target: list | None = None) -> str:
    """Text of the file a CLI run writes to ``--out``, given an optional ``--target`` vector."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        if target is not None:
            target_path = Path(tmp) / "target.json"
            target_path.write_text(json.dumps(target))
            argv = argv + ["--target", str(target_path)]
        _cli_text(argv + ["--out", str(out)])
        return out.read_text()


def _cases() -> dict:
    """Case name -> zero-argument function returning the report text."""
    cases = {}
    for n in range(2, 8):
        cases[f"polar-w-n{n}"] = lambda n=n: run_polarization_w(n).to_json()
    for n in (3, 8):
        for port in (0, 2):
            cases[f"path-w-n{n}-port{port}"] = lambda n=n, p=port: run_path_w(n, p).to_json()
    clone = np.array([math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)])
    cases["designed-clone"] = lambda: run_designed_path(clone).to_json()
    cases["cli-multiport-n5-file"] = lambda: _cli_file_text(["multiport", "--n", "5"])
    cases["cli-design-clone-file"] = lambda: _cli_file_text(
        ["design"], [[float(x), 0.0] for x in clone])
    for fmt in FORMATS:
        # Vacuum in, vacuum out: writes "occ": [] and an empty conditional "terms": []
        # in JSON, and the ket |vac;3> in csv and table.
        cases[f"cli-evolve-dft3-vacuum-{fmt}"] = lambda f=fmt: _evolve_text(
            f, 3, {"nPorts": 3, "occ": []})
        cases[f"cli-polar-w-n4-{fmt}"] = lambda f=fmt: _cli_text(
            ["polar-w", "--n", "4", "--format", f])
        cases[f"cli-path-w-n6-port2-{fmt}"] = lambda f=fmt: _cli_text(
            ["path-w", "--n", "6", "--input-port", "2", "--format", f])
        cases[f"cli-evolve-dft5-bunched-{fmt}"] = lambda f=fmt: _evolve_text(f)
        cases[f"cli-evolve-design6-bunched-{fmt}"] = lambda f=fmt: _evolve_text(
            f, 6, EVOLVE_DESIGN6_INPUT, DESIGN6_TARGET)
    # Two-digit ports in the "occ" entries of the term list.
    cases["cli-path-w-n12-port5-json"] = lambda: _cli_text(
        ["path-w", "--n", "12", "--input-port", "5", "--format", "json"])
    cases["cli-polar-w-n6-json"] = lambda: _cli_text(["polar-w", "--n", "6", "--format", "json"])
    for fmt in ("csv", "table"):
        cases[f"cli-evolve-dft4-bunched-{fmt}"] = lambda f=fmt: _evolve_text(
            f, 4, EVOLVE_DFT4_INPUT)
    return cases


CASES = _cases()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_file_lists_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert _sha256(CASES[name]()) == expected


if __name__ == "__main__":
    hashes = {name: _sha256(make()) for name, make in sorted(CASES.items())}
    json.dump(hashes, sys.stdout, indent=2)
    sys.stdout.write("\n")
