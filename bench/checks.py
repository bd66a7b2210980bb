"""Output checks for every op of the benchmark.

Each check reads the op's output as a user would see it (JSON, CSV or
table text, plus the files the op wrote) and returns a list of error
strings; an empty list means the op passed. Expected values come from the
paper's closed forms, from values pinned at the seed code, or from
independent computations: ``permanent_naive`` on the repeated submatrix
and the brute-force ``oracle_evolve``. Report bytes are hashed for the run
record but never gated on, because a kernel rewrite may change last-bit
floats.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import re

import numpy as np

# polar-w success probability by n: 1/9 and 1/16 are the paper's values;
# n=7 is pinned at the seed code's value.
POLAR_PROBABILITY = {3: 1 / 9, 4: 1 / 16, 5: 1 / 625, 6: 0.0,
                     7: 0.001912468444270669, 8: 2.0 ** -13}
# Fidelity to the uniform polarization W as the seed code gives it: 1 where
# the scheme yields W, 0 where no term survives (n=6) or the phases of the
# DFT_8 coincidence branches make the overlap vanish (n=8).
POLAR_FIDELITY = {3: 1.0, 4: 1.0, 5: 1.0, 6: 0.0, 7: 1.0, 8: 0.0}
PROBABILITY_TOL = 1e-12
FIDELITY_TOL = 1e-9
NORM_TOL = 1e-9
AMPLITUDE_TOL = 1e-10
SAMPLED_AMPLITUDES = 3
ORACLE_MAX_PHOTONS = 4
ORACLE_MAX_PORTS = 4

_NUM = r"(?:\d+(?:\.\d*)?(?:e[+-]\d+)?|inf|nan)"
_TABLE_TERM = re.compile(rf"^\s+(\|[^>]*>): amp (-?{_NUM})([+-]{_NUM})i\s+p=")
_PATH_TABLE_ROW = re.compile(r"^\s+port (\d+): probability (\S+)")
_TABLE_ROW = re.compile(r"^\s+(\w+): (\S+)")


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def parse_label(label: str) -> tuple:
    """``|H0^2 V3>`` -> ((0, 'H', 2), (3, 'V', 1)), the canonical state key."""
    body = label.strip()[1:-1].strip()
    key = []
    for tok in body.split():
        count = 1
        if "^" in tok:
            tok, c = tok.split("^")
            count = int(c)
        key.append((int(tok[1:]), tok[0], count))
    return tuple(sorted(key))


def json_state_key(obj: dict) -> tuple:
    return tuple(sorted((e["port"], e["pol"], e["count"]) for e in obj["occ"]))


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def read_matrix_file(path: str) -> np.ndarray:
    obj = read_json(path)
    n = obj["n"]
    return np.array([complex(re_, im) for re_, im in obj["entries"]]).reshape(n, n)


def read_target(path: str) -> list[complex]:
    return [complex(re_, im) for re_, im in read_json(path)]


def parse_superposed(text: str, fmt: str) -> tuple[list[tuple[tuple, complex]], float | None]:
    """Output-state terms and the post-selection probability from an ``evolve`` report."""
    if fmt == "json":
        obj = json.loads(text)
        terms = [(json_state_key(t["state"]), complex(t["amp"][0], t["amp"][1]))
                 for t in obj["output"]["terms"]]
        ps = obj.get("postSelection")
        return terms, (ps["probability"] if ps else None)
    terms = []
    probability = None
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("post-selection"):
            probability = float(line.split("probability ")[1].split(",")[0].split(" ")[0])
            break
        if fmt == "csv":
            if line == "state,re,im,probability":
                continue
            label, re_, im, _ = line.rsplit(",", 3)
            terms.append((parse_label(label), complex(float(re_), float(im))))
        else:
            m = _TABLE_TERM.match(line)
            if m:
                terms.append((parse_label(m.group(1)),
                              complex(float(m.group(2)), float(m.group(3)))))
    return terms, probability


def expected_amplitude(u: np.ndarray, state_in: tuple, state_out: tuple) -> complex:
    """<out|U|in> from ``permanent_naive`` on the repeated submatrix, per polarization."""
    from wstategen.linalg import permanent_naive

    amp = 1.0 + 0.0j
    for pol in ("H", "V"):
        cols = [p for p, q, c in state_in if q == pol for _ in range(c)]
        rows = [p for p, q, c in state_out if q == pol for _ in range(c)]
        if len(rows) != len(cols):
            return 0.0 + 0.0j
        if not cols:
            continue
        norm = math.prod(math.factorial(c) for _, q, c in state_in + state_out if q == pol)
        amp *= permanent_naive(u[np.ix_(rows, cols)]) / math.sqrt(norm)
    return amp


def oracle_terms(u: np.ndarray, state_in: tuple) -> dict[tuple, complex]:
    from wstategen.evolve import oracle_evolve
    from wstategen.fock import FockState, Mode, Polarization

    n = u.shape[0]
    fock = FockState.from_counts({Mode(p, Polarization(q)): c for p, q, c in state_in}, n)
    return {tuple(sorted((m.port, m.pol.value, c) for m, c in s.occ)): a
            for s, a in oracle_evolve(u, fock)}


class Checker:
    """Checks op outputs; caches the expensive expectations for the life of a run.

    ``seed`` picks which amplitudes are sampled against ``permanent_naive``.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._matrices: dict[str, np.ndarray] = {}
        self._expected: dict[tuple, complex] = {}
        self._oracle: dict[str, dict[tuple, complex]] = {}

    def check(self, spec: dict, outputs: list[tuple[int, str]]) -> list[str]:
        """Errors for one op; ``outputs`` holds (exit code, text) per command the op ran."""
        errors = [f"exit code {rc}" for rc, _ in outputs if rc != 0]
        if errors:
            return errors
        check = getattr(self, "_check_" + spec["type"])
        try:
            return check(spec, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _matrix(self, path: str) -> np.ndarray:
        if path not in self._matrices:
            self._matrices[path] = read_matrix_file(path)
        return self._matrices[path]

    def _check_polar(self, spec, outputs):
        n = spec["n"]
        text = outputs[-1][1]
        if spec["fmt"] == "json":
            obj = json.loads(text)
            p, f = obj["successProbability"], obj["fidelityToTarget"]
            kept = obj["postSelection"]["keptTerms"]
        else:
            rows = dict(m.groups() for m in map(_TABLE_ROW.match, text.splitlines()) if m)
            p, f = float(rows["successProbability"]), float(rows["fidelityToTarget"])
            kept = int(float(rows["keptTerms"]))
        errors = []
        if not _close(p, POLAR_PROBABILITY[n], PROBABILITY_TOL):
            errors.append(f"polar n={n}: probability {p!r}, expected {POLAR_PROBABILITY[n]!r}")
        if not _close(f, POLAR_FIDELITY[n], FIDELITY_TOL):
            errors.append(f"polar n={n}: fidelity {f!r}, expected {POLAR_FIDELITY[n]!r}")
        if kept != (n if POLAR_PROBABILITY[n] > 0 else 0):
            errors.append(f"polar n={n}: keptTerms {kept}")
        return errors

    def _check_path(self, spec, outputs):
        n, port, fmt = spec["n"], spec["port"], spec["fmt"]
        text = outputs[-1][1]
        fidelity = None
        if fmt == "json":
            obj = json.loads(text)
            probs = obj["portProbabilities"]
            uniform = obj["probabilityUniform"] is True
            fidelity = obj["fidelityToTarget"]
        elif fmt == "csv":
            lines = text.splitlines()
            if lines[0] != "port,probability":
                return [f"path n={n}: bad csv header {lines[0]!r}"]
            probs = [float(line.split(",")[1]) for line in lines[1:]]
            uniform = True
        else:
            probs = [float(m.group(2)) for m in map(_PATH_TABLE_ROW.match, text.splitlines())
                     if m]
            uniform = "probability distribution uniform: True" in text
            fidelity = float(text.split("fidelity to uniform-phase W: ")[1].split()[0])
        errors = []
        if len(probs) != n:
            errors.append(f"path n={n}: {len(probs)} port probabilities")
        bad = [p for p in probs if not _close(p, 1.0 / n, PROBABILITY_TOL)]
        if bad:
            errors.append(f"path n={n}: {len(bad)} port probabilities differ from 1/n")
        if not uniform:
            errors.append(f"path n={n}: distribution not reported uniform")
        if port == 0 and fidelity is not None and not _close(fidelity, 1.0, FIDELITY_TOL):
            errors.append(f"path n={n}: fidelity {fidelity!r} at input port 0")
        return errors

    def _check_designed(self, spec, outputs):
        target = read_target(spec["target"])
        n = len(target)
        errors = []
        if spec["fmt"] == "json":
            obj = json.loads(outputs[-1][1])
            probs = obj["portProbabilities"]
            if len(probs) != n or any(not _close(p, abs(c) ** 2, PROBABILITY_TOL)
                                      for p, c in zip(probs, target)):
                errors.append(f"designed n={n}: port probabilities differ from |target|^2")
            if not _close(obj["fidelityToTarget"], 1.0, FIDELITY_TOL):
                errors.append(f"designed n={n}: fidelity {obj['fidelityToTarget']!r}")
            amps = {t["state"]["occ"][0]["port"]: complex(*t["amp"])
                    for t in obj["outputState"]["terms"]}
        else:
            design_out = outputs[0][1]
            if "column match: PASS" not in design_out or "unitarity: PASS" not in design_out:
                errors.append(f"designed n={n}: design did not verify")
            terms, _ = parse_superposed(outputs[1][1], "csv")
            amps = {key[0][0]: a for key, a in terms}
        if sorted(amps) != list(range(n)) or any(
                abs(amps[p] - target[p]) > AMPLITUDE_TOL for p in range(n)):
            errors.append(f"designed n={n}: output amplitudes differ from the target")
        return errors

    def _check_evolve(self, spec, outputs):
        case = spec["case"]
        u = self._matrix(spec["matrix"])
        n = u.shape[0]
        state_in = json_state_key(read_json(spec["input"]))
        terms, probability = parse_superposed(outputs[-1][1], spec["fmt"])
        errors = []
        norm = sum(abs(a) ** 2 for _, a in terms)
        if not _close(norm, 1.0, NORM_TOL):
            errors.append(f"{case}: output norm {norm!r}")
        kept = sum(abs(a) ** 2 for key, a in terms
                   if sorted(p for p, _, c in key for _ in range(c)) == list(range(n)))
        if probability is None or not _close(probability, kept, NORM_TOL):
            errors.append(f"{case}: post-selection probability {probability!r}, terms give {kept!r}")
        rng = random.Random(f"{self.seed}:{case}")
        for i in rng.sample(range(len(terms)), min(SAMPLED_AMPLITUDES, len(terms))):
            key, amp = terms[i]
            if (case, key) not in self._expected:
                self._expected[case, key] = expected_amplitude(u, state_in, key)
            if abs(amp - self._expected[case, key]) > AMPLITUDE_TOL:
                errors.append(f"{case}: amplitude of {key} is {amp}, "
                              f"permanent_naive gives {self._expected[case, key]}")
        photons = sum(c for _, _, c in state_in)
        if photons <= ORACLE_MAX_PHOTONS and n <= ORACLE_MAX_PORTS:
            if case not in self._oracle:
                self._oracle[case] = oracle_terms(u, state_in)
            oracle = self._oracle[case]
            got = dict(terms)
            if set(got) != set(oracle) or any(
                    abs(got[k] - oracle[k]) > AMPLITUDE_TOL for k in oracle):
                errors.append(f"{case}: output differs from oracle_evolve")
        return errors

    def _check_multiport(self, spec, outputs):
        n = spec["n"]
        m = read_matrix_file(spec["out"])
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        expected = np.exp(2j * cmath.pi * j * k / n) / math.sqrt(n)
        if m.shape != (n, n) or np.max(np.abs(m - expected)) > PROBABILITY_TOL:
            return [f"multiport n={n}: matrix differs from the DFT coupler"]
        return []

    def _check_design(self, spec, outputs):
        target = np.array(read_target(spec["target"]))
        n = target.size
        errors = []
        text = outputs[-1][1]
        if "column match: PASS" not in text or "unitarity: PASS" not in text:
            errors.append(f"design n={n}: report does not say PASS")
        m = read_matrix_file(spec["out"])
        if m.shape != (n, n) or np.max(np.abs(m[:, 0] - target)) > AMPLITUDE_TOL:
            errors.append(f"design n={n}: first column differs from the target")
        elif np.max(np.abs(m.conj().T @ m - np.eye(n))) > AMPLITUDE_TOL:
            errors.append(f"design n={n}: matrix not unitary")
        return errors
