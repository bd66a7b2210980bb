import cmath
import io
import json
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from wstategen import cli, linalg
from wstategen.errors import CapacityError
from wstategen.schemes import run_designed_path

OMEGA = cmath.exp(2j * math.pi / 3)


def _permanent_gray_loop(m):
    """Reference Ryser permanent: one Python step per Gray-code subset.

    ``linalg.permanent`` must match it bit for bit: both add the same terms
    in the same order.
    """
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    rowsum = np.zeros(n, dtype=complex)
    gray = 0
    popcount = 0
    for i in range(1, 1 << n):
        new_gray = i ^ (i >> 1)
        bit = new_gray ^ gray
        col = bit.bit_length() - 1
        if new_gray & bit:
            rowsum += a[:, col]
            popcount += 1
        else:
            rowsum -= a[:, col]
            popcount -= 1
        gray = new_gray
        prod = np.prod(rowsum)
        total += prod if popcount % 2 == 0 else -prod
    return complex(total) if n % 2 == 0 else -complex(total)


def _bits(z):
    return struct.pack("dd", z.real, z.imag)


def _part_bits(a):
    """The int64 bits of every real and imaginary part of a complex array."""
    return np.ascontiguousarray(a).view(np.int64)


def _unitarity_residual(u):
    """max |U*U - I|, for checks tighter than ``verify_unitary``'s ``UNITARITY_TOL``."""
    return np.max(np.abs(u.conj().T @ u - np.eye(len(u))))


def _planted_matrix(rng, k):
    """Random complex k x k matrix with exact zeros, -0.0 parts and integers planted."""
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    pick = rng.random((k, k))
    m[pick < 0.15] = 0
    m[(pick >= 0.15) & (pick < 0.3)] = complex(1.0, -0.0)
    m[(pick >= 0.3) & (pick < 0.4)] = complex(-0.0, -0.0)
    ints = (pick >= 0.4) & (pick < 0.5)
    m[ints] = np.round(3 * m[ints].real)
    return m


class TestDftMultiport:
    def test_tritter_matches_standard_form(self):
        t = linalg.dft_multiport(3)
        expected = np.array(
            [[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]
        ) / math.sqrt(3)
        assert np.max(np.abs(t - expected)) <= 1e-15

    def test_n2_is_balanced_beam_splitter(self):
        b = linalg.dft_multiport(2)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(b, expected, atol=1e-15)

    def test_n4_entry(self):
        # entry (2,3) is exp(i*2*pi*6/4)/2 = exp(i*3*pi)/2 = -1/2
        u = linalg.dft_multiport(4)
        assert abs(u[2, 3] - (-0.5)) <= 1e-15
        assert abs(u[1, 2] - (-0.5)) <= 1e-15
        assert abs(u[1, 3] - (-0.5j)) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 9))
    def test_unitary(self, n):
        assert linalg.verify_unitary(linalg.dft_multiport(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_symmetric(self, n):
        u = linalg.dft_multiport(n)
        assert np.max(np.abs(u - u.T)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 64, 256])
    def test_entries_come_from_one_root_table(self, n):
        # Entry (j, k) is root jk mod n, and row 1 holds the roots in order.
        u = linalg.dft_multiport(n)
        m = np.arange(n)
        assert np.array_equal(_part_bits(u), _part_bits(u[1][np.outer(m, m) % n]))
        assert np.array_equal(_part_bits(u), _part_bits(u.T))

    @pytest.mark.parametrize("n", [64, 256])
    def test_unitarity_residual_is_round_off(self, n):
        u = linalg.dft_multiport(n)
        assert _unitarity_residual(u) <= 1e-15

    def test_dft256_has_few_distinct_parts(self):
        # 256 roots give at most 512 float parts; per-entry exps gave 30,425.
        u = linalg.dft_multiport(256)
        assert np.unique(_part_bits(u)).size <= 512

    def test_quarter_turns_are_exact(self):
        b = linalg.dft_multiport(2)
        assert not _part_bits(b.imag).any()  # every imaginary part is +0.0
        assert b[1, 1] == -b[0, 0] == -b[0, 1] == -b[1, 0]
        u = linalg.dft_multiport(4)
        turns = np.array([1, 1j, -1, complex(0, -1)]) / 2
        m = np.arange(4)
        assert np.array_equal(_part_bits(u), _part_bits(turns[np.outer(m, m) % 4]))
        assert not np.any(u.conj().T @ u - np.eye(4))

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            linalg.dft_multiport(n)


class TestCanonicalQuarter:
    def test_unitary_and_balanced(self):
        q = linalg.canonical_quarter()
        assert _unitarity_residual(q) <= 1e-12
        assert np.allclose(np.abs(q), 0.5)

    def test_entries_are_exactly_half(self):
        q = linalg.canonical_quarter()
        assert q.dtype == np.complex128
        assert np.all(q.imag == 0) and set(q.real.ravel().tolist()) == {0.5, -0.5}


class TestVerifyUnitary:
    def test_identity(self):
        assert linalg.verify_unitary(np.eye(3))

    def test_rank_one_rejected(self):
        m = np.ones((2, 2)) / math.sqrt(2)
        assert not linalg.verify_unitary(m)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            linalg.verify_unitary(np.ones((2, 3)))

    @pytest.mark.parametrize("scale, unitary", [(0.4, True), (0.6, False)])
    def test_tolerance_is_unitarity_tol(self, scale, unitary):
        # A diagonal entry 1 + d leaves 2d + d^2 in the residual.
        m = np.diag([1.0 + scale * linalg.UNITARITY_TOL, 1.0])
        assert linalg.verify_unitary(m) is unitary


class TestPermanent:
    def test_identity(self):
        for k in range(1, 6):
            assert abs(linalg.permanent(np.eye(k)) - 1.0) <= 1e-12

    def test_2x2_definition(self):
        m = np.array([[1 + 2j, 3], [5j, 7 - 1j]])
        expected = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]
        assert abs(linalg.permanent(m) - expected) <= 1e-12

    def test_tritter_submatrix(self):
        # rows {0,1} x cols {0,1} of the tritter; 2 permutations by hand
        sub = linalg.dft_multiport(3)[np.ix_([0, 1], [0, 1])]
        expected = (1 + OMEGA) / 3
        assert abs(linalg.permanent_naive(sub) - expected) <= 1e-12
        assert abs(linalg.permanent(sub) - expected) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 8))
    def test_ryser_matches_naive_on_random(self, k):
        rng = np.random.default_rng(1000 + k)
        for _ in range(100):
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            ryser = linalg.permanent(m)
            naive = linalg.permanent_naive(m)
            assert abs(ryser - naive) <= 1e-9 * max(1.0, abs(naive))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_bit_identical_to_gray_loop(self, k):
        rng = np.random.default_rng(2000 + k)
        for _ in range(60 if k < 8 else 15):
            m = _planted_matrix(rng, k)
            assert _bits(linalg.permanent(m)) == _bits(_permanent_gray_loop(m))

    @pytest.mark.parametrize("k", [15, 16])
    def test_bit_identical_across_chunks(self, k):
        m = _planted_matrix(np.random.default_rng(3000 + k), k)
        assert _bits(linalg.permanent(m)) == _bits(_permanent_gray_loop(m))

    @pytest.mark.parametrize("k", [*range(1, 10), 15])
    def test_bit_identical_on_every_input_layout(self, k):
        # The kernel's products have the bits of complex `*` only on the
        # C-contiguous buffer it gathers, whatever the layout it is given.
        m = _planted_matrix(np.random.default_rng(6000 + k), k)
        big = np.zeros((2 * k, 2 * k + 1), dtype=complex)
        big[::2, 1::2] = m
        read_only = m.copy()
        read_only.flags.writeable = False
        layouts = {
            "fortran": np.asfortranarray(m),
            "transposed view": m.T.copy().T,
            "strided slice": big[::2, 1::2],
            "read-only": read_only,
            "float": m.real.copy(),
            "int": np.round(3 * m.real).astype(int),
        }
        if k > 1:  # a 1x1 view is C-contiguous whatever its strides
            assert not layouts["transposed view"].flags.c_contiguous
            assert not layouts["strided slice"].flags.c_contiguous
        for name, x in layouts.items():
            assert _bits(linalg.permanent(x)) == _bits(_permanent_gray_loop(x)), name

    @pytest.mark.parametrize("k", range(1, 10))
    def test_bit_identical_on_real_matrices(self, k):
        # The imaginary part of the result is a sum of signed zeros, so its
        # sign bit shows any change in how the zeros are combined.
        rng = np.random.default_rng(4000 + k)
        for _ in range(20):
            real = np.round(rng.normal(size=(k, k)), 1) * (rng.random((k, k)) < 0.7)
            imag = np.where(rng.random((k, k)) < 0.5, -0.0, 0.0)
            m = real + 1j * imag
            m.imag = imag
            assert _bits(linalg.permanent(m)) == _bits(_permanent_gray_loop(m))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_bit_identical_on_signed_zero_and_unit_entries(self, k):
        # Results often have exactly zero parts here, whose sign depends on
        # where the running sums start.
        values = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                           complex(-0.0, -0.0), complex(1.0, -0.0), complex(-0.0, 1.0),
                           complex(0.0, -1.0), complex(-1.0, 0.0)])
        rng = np.random.default_rng(5000 + k)
        for _ in range(300):
            m = values[rng.integers(0, len(values), size=(k, k))]
            assert _bits(linalg.permanent(m)) == _bits(_permanent_gray_loop(m))

    def test_diagonal_at_twenty_is_product(self):
        d = np.random.default_rng(20).uniform(0.5, 1.5, size=20)
        expected = math.prod(d)
        assert abs(linalg.permanent(np.diag(d)) - expected) <= 1e-12 * expected

    def test_row_multilinear(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            s = complex(rng.normal(), rng.normal())
            row = int(rng.integers(0, k))
            scaled = m.copy()
            scaled[row] *= s
            base = linalg.permanent(m)
            assert abs(linalg.permanent(scaled) - s * base) <= 1e-9 * max(1.0, abs(s * base))

    def test_plan_cache_stays_bounded(self):
        # A cached plan holds two 8-byte indices per Gray-code step, so the 16 plans
        # of 2^14 steps that k = 18 alone fills take 4 MiB; a (steps, k) sign table
        # per plan would take 2.4 MB each at k = 18.
        matrices = [np.full((k, k), 0.5 + 0.25j) for k in range(2, 19)]
        linalg._gray_plan.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in matrices:
                linalg.permanent(m)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 16 * 2 * 8 * linalg._GRAY_CHUNK + (64 << 10)

    def test_rejects_empty_and_non_square(self):
        with pytest.raises(ValueError):
            linalg.permanent(np.empty((0, 0)))
        with pytest.raises(ValueError):
            linalg.permanent(np.ones((2, 3)))

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            linalg.permanent(np.eye(25))


def test_outer_has_the_bits_of_python_complex_multiply():
    rng = np.random.default_rng(7)
    a, b = _planted_matrix(rng, 6).ravel(), _planted_matrix(rng, 5).ravel()
    expected = np.array([[x * y for y in b.tolist()] for x in a.tolist()])
    assert np.array_equal(_part_bits(linalg.outer(a, b)), _part_bits(expected))


class TestCompleteUnitary:
    def test_identity_target(self):
        u = linalg.complete_unitary_from_column(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(u, np.eye(3))

    def test_clone_target(self):
        target = np.array([math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)])
        u = linalg.complete_unitary_from_column(target)
        assert linalg.verify_unitary(u)
        assert np.max(np.abs(u[:, 0] - target)) <= 1e-10

    def test_uniform_target_matches_tritter_probabilities(self):
        target = np.full(3, 1 / math.sqrt(3))
        u = linalg.complete_unitary_from_column(target)
        tritter_col = linalg.dft_multiport(3)[:, 0]
        assert np.allclose(np.abs(u[:, 0]) ** 2, np.abs(tritter_col) ** 2, atol=1e-12)

    def test_random_targets_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            u = linalg.complete_unitary_from_column(v)
            assert linalg.verify_unitary(u)
            assert np.max(np.abs(u[:, 0] - v)) <= 1e-10

    def test_deterministic(self):
        v = np.array([0.6, 0.8j])
        a = linalg.complete_unitary_from_column(v)
        b = linalg.complete_unitary_from_column(v)
        assert np.array_equal(a, b)

    def test_pure_phase_target(self):
        v = np.array([cmath.exp(0.7j), 0.0, 0.0])
        u = linalg.complete_unitary_from_column(v)
        assert linalg.verify_unitary(u)
        assert np.max(np.abs(u[:, 0] - v)) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            linalg.complete_unitary_from_column(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("target", [np.eye(2) / math.sqrt(2), np.array([[1.0], [0.0]]),
                                        np.full((1, 1, 4), 0.5)], ids=["2x2", "2x1", "1x1x4"])
    def test_rejects_target_with_more_than_one_axis(self, target):
        with pytest.raises(ValueError, match=f"shape {re.escape(str(target.shape))}"):
            linalg.complete_unitary_from_column(target)
        with pytest.raises(ValueError, match="one-dimensional"):
            run_designed_path(target)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("phase", [1, -1, 1j, cmath.exp(0.7j)], ids=["1", "-1", "i", "e0.7i"])
    def test_near_basis_targets(self, n, phase):
        """Targets next to phase*e0: off-axis entries from 1e-12 to 10^-1.75, quarter decades."""
        for q in range(42):
            c = np.zeros(n, dtype=complex)
            c[0], c[1] = phase, 10.0 ** (-12 + q / 4)
            c /= np.linalg.norm(c)
            u = linalg.complete_unitary_from_column(c)
            assert np.max(np.abs(u[:, 0] - c)) <= 1e-14, q
            assert _unitarity_residual(u) <= 1e-12, q

    @pytest.mark.parametrize("tiny", [1e-153, 1e-155, 1e-160, 1e-300])
    def test_tiny_off_axis_entry(self, tiny):
        """Off-axis weight near or below the smallest normal double: no NaN, no warning."""
        c = np.array([1.0, tiny, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = linalg.complete_unitary_from_column(c)
        assert np.all(np.isfinite(u))
        assert _unitarity_residual(u) <= 1e-12
        assert np.max(np.abs(u[:, 0] - c)) <= 1e-14

    @pytest.mark.parametrize("phase", [1.0, cmath.exp(0.7j)], ids=["1", "e0.7i"])
    def test_basis_target_gives_diagonal_phase(self, phase):
        u = linalg.complete_unitary_from_column(np.array([phase, 0.0, 0.0]))
        assert np.array_equal(u, np.diag([phase, 1.0, 1.0]).astype(complex))

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("norm_sq", [1 - 0.99e-10, 1 + 0.99e-10], ids=["below", "above"])
    def test_normalization_edge_targets_pass_designer(self, n, norm_sq):
        """Targets just inside the unit-norm tolerance still give their column exactly."""
        for t in (1e-6, 1e-3, 0.3):
            c = np.zeros(n, dtype=complex)
            c[0], c[-1] = 1.0, t
            c *= math.sqrt(norm_sq) / np.linalg.norm(c)
            report = run_designed_path(c)
            assert np.max(np.abs(report.unitary_used[:, 0] - c)) <= 1e-10, t

    def test_design_cli_near_basis_target(self, tmp_path):
        target = tmp_path / "near.json"
        target.write_text("[[1.0, 0], [1e-9, 0], [0, 0]]")
        out = io.StringIO()
        code = cli.main(["design", "--target", str(target), "--out", str(tmp_path / "u.json")], out)
        assert code == 0
        assert out.getvalue().splitlines()[:2] == ["column match: PASS", "unitarity: PASS"]


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        u = linalg.dft_multiport(5)
        path = tmp_path / "m.json"
        linalg.write_matrix(path, u)
        back = linalg.read_matrix(path)
        assert np.array_equal(u, back)

    def test_format_shape(self, tmp_path):
        path = tmp_path / "m.json"
        linalg.write_matrix(path, np.eye(2))
        obj = json.loads(path.read_text())
        assert obj["n"] == 2
        assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [0, 0], [0, 0]]}))
        with pytest.raises(ValueError):
            linalg.read_matrix(path)

    @pytest.mark.parametrize("n", [2.0, True, "2", None, 0])
    def test_rejects_bad_size_field(self, n):
        entries = [[1.0, 0.0]] * 4
        with pytest.raises(ValueError, match="size n"):
            linalg.matrix_from_json_obj({"n": n, "entries": entries})

    def test_wrong_entry_count_reports_not_square(self):
        with pytest.raises(ValueError, match="not square"):
            linalg.matrix_from_json_obj({"n": 2, "entries": [[1.0, 0.0]] * 3})

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "entries": [[NaN, 0.0]]}')
        with pytest.raises(ValueError):
            linalg.read_matrix(path)

    def test_rejects_json_nested_too_deep(self, tmp_path):
        # The parser's RecursionError is a RuntimeError; bad input raises ValueError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match=re.escape(f"{path}: JSON nested too deep")) as info:
            linalg.read_matrix(path)
        assert type(info.value) is ValueError
