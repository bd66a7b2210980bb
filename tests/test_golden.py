"""Golden report bytes: refactors must leave every report byte-identical.

Each case produces the exact text of a scheme report or of a CLI run;
its sha256 must equal the one recorded in ``golden/reports.sha256.json``.
A deliberate change of report bytes regenerates that file with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/reports.sha256.json

The same hashes must come out at every CPU dispatch level numpy offers.
"""
import hashlib
import io
import json
import math
import os
import subprocess
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

# A 64-entry target from ``math`` alone, cos(k) + i sin(2k) scaled to unit norm
# (``fsum`` of products, the same bits on every Python): nearly all of its
# Householder coupler's 8,192 float parts are distinct.
DESIGN64_RAW = [complex(math.cos(k), math.sin(2 * k)) for k in range(64)]
DESIGN64_NORM = math.sqrt(math.fsum(x * x for z in DESIGN64_RAW for x in (z.real, z.imag)))
DESIGN64_TARGET = np.array([complex(z.real / DESIGN64_NORM, z.imag / DESIGN64_NORM)
                            for z in DESIGN64_RAW])

# One H photon at port 3 and one V photon at port 10 of DFT_12: 12 x 12 = 144
# terms whose kets hold two-digit ports.
EVOLVE_DFT12_INPUT = {
    "nPorts": 12,
    "occ": [
        {"port": 3, "pol": "H", "count": 1},
        {"port": 10, "pol": "V", "count": 1},
    ],
}

# Ten H photons at port 0 and one V photon at port 1 of DFT_2: 11 x 2 = 22
# terms whose kets hold two-digit counts such as H0^10.
EVOLVE_DFT2_INPUT = {
    "nPorts": 2,
    "occ": [
        {"port": 0, "pol": "H", "count": 10},
        {"port": 1, "pol": "V", "count": 1},
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
    # DFT_64, whose 8,192 float parts hold 2,282 distinct values: the report
    # and the matrix file write many equal parts.
    cases["path-w-n64-port21"] = lambda: run_path_w(64, 21).to_json()
    cases["cli-multiport-n64-file"] = lambda: _cli_file_text(["multiport", "--n", "64"])
    # DFT_43 from port 1: glibc 2.36's pow(x, 2) rounds 3 of its 43 port
    # probabilities away from the exact square.
    cases["path-w-n43-port1"] = lambda: run_path_w(43, 1).to_json()
    # The benchmark's path-wide large op: 65,536 matrix entries and 256 terms.
    cases["path-w-n256-port85"] = lambda: run_path_w(256, 85).to_json()
    cases["designed-path-n64"] = lambda: run_designed_path(DESIGN64_TARGET).to_json()
    for fmt in ("csv", "table"):
        cases[f"cli-evolve-dft4-bunched-{fmt}"] = lambda f=fmt: _evolve_text(
            f, 4, EVOLVE_DFT4_INPUT)
        # 144 kets with two-digit ports, and 22 kets with ^10 counts.
        cases[f"cli-evolve-dft12-h3v10-{fmt}"] = lambda f=fmt: _evolve_text(
            f, 12, EVOLVE_DFT12_INPUT)
        cases[f"cli-evolve-dft2-h10v1-{fmt}"] = lambda f=fmt: _evolve_text(
            f, 2, EVOLVE_DFT2_INPUT)
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


def _dispatch_suffixes() -> list[str]:
    """Each suffix of numpy's dispatch targets, lowest first.

    Numpy refuses to disable a baseline feature, and the dispatch list holds
    none, so disabling a suffix runs numpy's loops at the level below it.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [" ".join(__cpu_dispatch__[i:]) for i in range(len(__cpu_dispatch__))]


@pytest.mark.parametrize("disabled", _dispatch_suffixes())
def test_report_bytes_at_every_dispatch_level(disabled):
    """Every golden hash, computed in a process with numpy's ``disabled`` targets switched off."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    hashes = {name: _sha256(make()) for name, make in sorted(CASES.items())}
    json.dump(hashes, sys.stdout, indent=2)
    sys.stdout.write("\n")
