"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Timing limits are asserted with a wall clock.
"""
import cmath
import io
import json
import math
import time
from itertools import combinations_with_replacement

import numpy as np

import wstategen as w
from wstategen.cli import main
from support import random_unitary

H, V = w.Polarization.H, w.Polarization.V
OMEGA = cmath.exp(2j * math.pi / 3)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_path_w_reproduction():
    start = time.perf_counter()
    stream = io.StringIO()
    code = main(["path-w", "--n", "3", "--format", "json"], stream)
    elapsed = time.perf_counter() - start
    assert code == 0
    obj = json.loads(stream.getvalue())
    for p in obj["portProbabilities"]:
        assert abs(p - 1 / 3) <= 1e-12
    assert obj["successProbability"] == 1.0
    assert elapsed < 1.0
    report(1, f"path-w n=3 probabilities 1/3, success 1, {elapsed:.3f}s")


def test_criterion_2_tritter_exactness():
    t = w.dft_multiport(3)
    expected = np.array(
        [[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]
    ) / math.sqrt(3)
    worst = np.max(np.abs(t - expected))
    assert worst <= 1e-15
    report(2, f"tritter matches standard form, max entry error {worst:.2e}")


def test_criterion_3_three_photon_polarization_w():
    start = time.perf_counter()
    stream = io.StringIO()
    code = main(["polar-w", "--n", "3", "--format", "json"], stream)
    elapsed = time.perf_counter() - start
    assert code == 0
    obj = json.loads(stream.getvalue())
    assert abs(obj["successProbability"] - 1 / 9) <= 1e-9
    assert abs(obj["fidelityToTarget"] - 1.0) <= 1e-9
    assert elapsed < 1.0
    report(3, f"polar-w n=3 probability 1/9, fidelity 1, {elapsed:.3f}s")


def test_criterion_4_branch_structure():
    u = w.dft_multiport(3)
    state = w.product_input([(0, H), (1, H), (2, V)], 3)
    full = w.evolve(u, state)
    branches = w.branch_amplitude_report(full, w.CoincidencePattern.one_per_port())
    assert len(branches) == 3
    expected = (cmath.exp(2j * math.pi / 3) + cmath.exp(4j * math.pi / 3)) / (3 * math.sqrt(3))
    for _, amp in branches:
        assert abs(amp - expected) <= 1e-12
    oracle = w.oracle_evolve(u, state)
    for s, amp in branches:
        assert abs(oracle.amplitude(s) - amp) <= 1e-9
    report(4, "3 equal branches at -1/(3*sqrt(3)), confirmed by oracle")


def test_criterion_5_four_photon_case():
    start = time.perf_counter()
    stream = io.StringIO()
    code = main(["polar-w", "--n", "4", "--format", "json"], stream)
    elapsed = time.perf_counter() - start
    assert code == 0
    obj = json.loads(stream.getvalue())
    assert abs(obj["successProbability"] - 1 / 16) <= 1e-9
    assert abs(obj["fidelityToTarget"] - 1.0) <= 1e-9
    assert elapsed < 5.0
    report(5, f"polar-w n=4 probability 1/16, fidelity 1, {elapsed:.3f}s")


def test_criterion_6_permanent_oracle():
    for k in range(1, 8):
        rng = np.random.default_rng(600 + k)
        for _ in range(100):
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            ryser = w.permanent(m)
            naive = w.permanent_naive(m)
            assert abs(ryser - naive) <= 1e-9 * max(1.0, abs(naive))
    report(6, "Ryser matches naive k!-sum, 100 random matrices per k in 1..7")


def test_criterion_7_engine_vs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(700)
    cases = 0
    for n in (2, 3):
        u = random_unitary(n, rng)
        modes = [w.Mode(p, pol) for p in range(n) for pol in (H, V)]
        for k in range(4):
            for combo in combinations_with_replacement(modes, k):
                counts = {}
                for m in combo:
                    counts[m] = counts.get(m, 0) + 1
                state = w.FockState.from_counts(counts, n)
                assert w.evolve(u, state).allclose(w.oracle_evolve(u, state), tol=1e-9)
                cases += 1
    for _ in range(50):
        u = random_unitary(4, rng)
        photons = [
            (int(rng.integers(0, 4)), H if rng.random() < 0.5 else V)
            for _ in range(4)
        ]
        state = w.product_input(photons, 4)
        assert w.evolve(u, state).allclose(w.oracle_evolve(u, state), tol=1e-9)
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"evolve == oracle_evolve on {cases} cases, {elapsed:.1f}s")


def test_criterion_8_designer_round_trip():
    clone = np.array([math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)])
    rng = np.random.default_rng(800)
    targets = [clone]
    for _ in range(100):
        n = int(rng.integers(2, 9))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        targets.append(v)
    for target in targets:
        u = w.complete_unitary_from_column(target)
        assert w.verify_unitary(u)
        assert np.max(np.abs(u[:, 0] - target)) <= 1e-10
        rep = w.run_designed_path(target)
        for p in range(len(target)):
            amp = rep.output_state.amplitude(w.single_photon_state(p, H, len(target)))
            assert abs(amp - target[p]) <= 1e-10
    report(8, f"{len(targets)} targets completed, verified, and reproduced")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(900)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        u = random_unitary(n, rng)
        k = int(rng.integers(1, 5))
        photons = [
            (int(rng.integers(0, n)), H if rng.random() < 0.5 else V)
            for _ in range(k)
        ]
        input_state = w.product_input(photons, n)
        out = w.evolve(u, input_state)
        # norm preservation
        assert abs(out.norm_sq() - 1.0) <= 1e-9
        # per-polarization photon conservation
        for s, _ in out:
            assert s.photons_per_pol() == input_state.photons_per_pol()
        # post-selection probability conservation and idempotence
        port = int(rng.integers(0, n))
        count = int(rng.integers(0, k + 1))
        pattern = w.CoincidencePattern.port_counts({port: count})
        result = w.postselect(out, pattern)
        assert abs(result.probability + result.dropped_probability - 1.0) <= 1e-9
        if result.kept_terms:
            again = w.postselect(result.conditional, pattern)
            assert abs(again.probability - 1.0) <= 1e-9
            assert again.conditional.allclose(result.conditional, tol=1e-9)
        # fidelity bounds and phase invariance
        f = w.fidelity(out, out)
        assert abs(f - 1.0) <= 1e-9
        theta = float(rng.uniform(0, 2 * math.pi))
        phased = w.SuperposedState(
            {s: a * cmath.exp(1j * theta) for s, a in out}, n
        )
        assert abs(w.fidelity(out, phased) - 1.0) <= 1e-9
    report(9, "norm, conservation, post-selection, and fidelity properties hold")


def test_criterion_10_hong_ou_mandel():
    u = w.dft_multiport(2)
    out = w.evolve(u, w.product_input([(0, H), (1, H)], 2))
    result = w.postselect(out, w.CoincidencePattern.one_per_port())
    assert result.probability <= 1e-12
    report(10, "two identical photons never split at a balanced coupler")
