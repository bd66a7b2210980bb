"""Complex matrix utilities for multiport couplers.

Provides the symmetric DFT multiport constructor, the complex outer
product with the bits of Python's complex ``*``, unitarity checking,
matrix permanents (Gray-code Ryser plus a naive reference), completion of
a unitary from a prescribed first column, and the matrix JSON file format.

All matrices are dense ``numpy`` arrays of ``complex128``. Ports are
zero-indexed throughout.
"""
from __future__ import annotations

import functools
import json
import math
import os
from itertools import chain, permutations

import numpy as np

from . import jsontext
from .errors import CapacityError, int_text, json_fields, size

UNITARITY_TOL = 1e-10

# The most photons of one polarization, or rows of a permanent, that any kernel takes on.
PHOTON_CAP = 24

# Gray-code steps per numpy pass in `permanent`; bounds its memory.
_GRAY_CHUNK = 1 << 14


def check_photon_cap(k_h: int, k_v: int, where: str = "") -> None:
    """CapacityError past ``PHOTON_CAP`` photons of one polarization; ``where`` follows the totals."""
    if max(k_h, k_v) > PHOTON_CAP:
        raise CapacityError(f"{int_text(k_h)} H and {int_text(k_v)} V photons{where}: "
                            f"over the {PHOTON_CAP}-photon cap per polarization")


def dft_multiport(n: int) -> np.ndarray:
    """The n-port symmetric coupler, entry (j,k) = zeta^(jk mod n)/sqrt(n), zeta = exp(i*2pi/n).

    One table of the n roots (1, i, -1 and -i exact) gives every entry, so it is bitwise symmetric.
    """
    m = np.arange(n := size(n, "port count", 2))
    roots = np.exp(2j * np.pi * m / n)
    roots[::n // math.gcd(n, 4)] = (1, 1j, -1, 0 - 1j)[::4 // math.gcd(n, 4)]  # -1j has real -0.0
    return (roots / math.sqrt(n))[np.outer(m, m) % n]


def canonical_quarter() -> np.ndarray:
    """The 4-port symmetric coupler realized as a tree of balanced beam splitters.

    All entries are +-1/2 (the real 4x4 Hadamard). Unlike the 4-point DFT
    matrix this coupler sends the four-photon coincidence branches of the
    polarization scheme to equal amplitudes, which is what the scheme's
    1/16-probability W-state output requires.
    """
    h = np.array([[1, 1], [1, -1]])
    return (np.kron(h, h) / 2).astype(complex)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix ``a[i] * b[j]`` of complex vectors, in the real form of Python's complex ``*``.

    Numpy's complex ``*`` gives other bits, which change with its CPU dispatch level.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real[:, None], a.imag[:, None], b.real, b.imag
    prod = np.empty((a.size, b.size), dtype=complex)
    np.subtract(ar * br, ai * bi, out=prod.real)
    np.add(ar * bi, ai * br, out=prod.imag)
    return prod


def square(m: np.ndarray) -> np.ndarray:
    """``m`` as a complex128 array; ValueError unless it is a square matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    return a


def verify_unitary(m: np.ndarray) -> bool:
    """True iff the max-norm of (M†M - I) is at most ``UNITARITY_TOL``."""
    m = square(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) <= UNITARITY_TOL)


def permanent(m: np.ndarray) -> complex:
    """Permanent of a square complex matrix via Ryser's formula with Gray-code updates.

    (2^k - 1) * k multiply-adds in O(2^14 * k) memory; over ``PHOTON_CAP`` rows
    a :class:`CapacityError`. Numpy chunks add the steps up in the sequential
    Gray-code order, so results are bit-identical to a step loop.
    """
    a = square(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("the permanent needs a non-empty matrix")
    if n > PHOTON_CAP:
        raise CapacityError(f"a {n}x{n} permanent is over the {PHOTON_CAP}-photon cap")
    if n == 1:
        # The single step of the chunked form, written out: same bits, no arrays.
        return -(0j - (0j + complex(a[0, 0])))

    rowsum, total = 0j, 0j
    # Row c of the table is column c of ``a``, row n + c its exact negation (signed zeros too).
    table = np.concatenate((a.T, np.negative(a.T)))
    for start in range(0, (1 << n) - 1, _GRAY_CHUNK):
        rows, offsets = _gray_plan(n, start // _GRAY_CHUNK)
        steps = table.take(rows, axis=0)
        steps[0] += rowsum
        np.add.accumulate(steps, axis=0, out=steps)
        rowsum = steps[-1]
        # Left to right along each row of this C-contiguous buffer: the bits of complex `*`.
        prods = np.multiply.reduceat(steps.ravel(), offsets)
        # Row r is step start + r + 1; a step's subset has odd size iff the step is odd.
        odd = prods[::2]
        np.negative(odd, out=odd)
        prods[0] += total
        total = np.add.accumulate(prods)[-1]
    return complex(total) if n % 2 == 0 else -complex(total)


@functools.lru_cache(maxsize=16)
def _gray_plan(n: int, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Table rows (column c, or n + c if it is removed) and row offsets of chunk ``chunk``."""
    i = np.arange(chunk * _GRAY_CHUNK, min((chunk + 1) * _GRAY_CHUNK, (1 << n) - 1)) + 1
    cols = (np.frexp((i & -i).astype(float))[1] - 1).astype(np.intp)
    rows = np.where(((i ^ (i >> 1)) >> cols) & 1 == 0, cols + n, cols)
    offsets = np.arange(0, rows.size * n, n, dtype=np.intp)
    rows.flags.writeable = offsets.flags.writeable = False  # shared through the cache
    return rows, offsets


def permanent_naive(m: np.ndarray) -> complex:
    """O(k!) permutation-sum permanent, kept as an independent test oracle."""
    a = square(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("the permanent needs a non-empty matrix")
    rows = np.arange(n)
    return complex(sum(np.prod(a[rows, list(perm)]) for perm in permutations(range(n))))


def check_normalized_column(target: np.ndarray) -> np.ndarray:
    """Validate a 1-D complex target: finite entries, unit norm within ``UNITARITY_TOL``."""
    c = np.asarray(target, dtype=complex)
    if c.ndim != 1 or c.size < 2:
        raise ValueError(f"target column must be one-dimensional of length >= 2: shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("target column contains non-finite entries")
    norm_sq = float(np.sum(np.abs(c) ** 2))
    if abs(norm_sq - 1.0) > UNITARITY_TOL:
        raise ValueError(f"target column is not normalized: sum |c|^2 = {norm_sq!r}")
    return c


def complete_unitary_from_column(target: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column equals ``target``.

    The Householder reflection along ``v = phase*e0 - c`` sends ``phase*e0``
    onto the target, and the phase of target[0] then goes on the first
    column. O(n^2). ``v[0]`` is ``phase*(|c[1:]|^2 / (1 + |c[0]|))``: equal to
    ``phase - c[0]`` for a unit target, but no digits cancel next to e0.
    """
    c = check_normalized_column(target)
    phase = c[0] / abs(c[0]) if abs(c[0]) > 0 else 1.0 + 0.0j
    off_sq = float(np.vdot(c[1:], c[1:]).real)
    u = np.eye(c.size, dtype=complex)
    if off_sq < np.finfo(float).tiny:
        # ``v v*`` would underflow; the diagonal phase is the target to round-off.
        u[0, 0] = phase
        return u
    v = 0j - c  # not -c: zero parts of c give +0.0, as in phase*e0 - c
    v[0] = phase * (off_sq / (1.0 + abs(c[0])))
    u -= 2.0 * outer(v, v.conj()) / float(np.vdot(v, v).real)
    u[:, :1] = outer(u[:, 0], [phase])
    return u


def write_matrix(path: str | os.PathLike, m: np.ndarray) -> None:
    """Write a square finite complex matrix as JSON with row-major [re, im] entries."""
    text = jsontext.dumps(matrix_json_frame(m))
    with open(path, "w") as f:
        f.write(text)


def matrix_to_json_obj(m: np.ndarray) -> dict:
    return jsontext.expand(matrix_json_frame(m))


def matrix_json_frame(m: np.ndarray) -> dict:
    """:func:`matrix_to_json_obj` with the entry list as a :mod:`jsontext` chunk writer."""
    a = square(m)
    return {"n": a.shape[0], "entries": functools.partial(_entries_chunks, a)}


def _entries_chunks(a: np.ndarray, depth: int) -> list[str]:
    """Pieces of the indent-2 JSON text of the entry list of ``a`` at nesting ``depth``.

    Non-finite entries raise ValueError: the encoder would write them as
    ``NaN`` or ``Infinity``, which is not JSON and which :func:`read_matrix`
    refuses.
    """
    if not a.size:
        return ["[]"]
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    i0, i1, i2 = ("\n" + "  " * (depth + k) for k in range(3))
    # Per entry: re, separator, im and the text up to the next re, or the list's close.
    pieces = np.empty((a.size, 4), dtype=object)
    pieces[:, ::2] = jsontext.float_reprs(np.ascontiguousarray(a).view(np.float64)).reshape(-1, 2)
    pieces[:, 1], pieces[:, 3], pieces[-1, 3] = f",{i2}", f"{i1}],{i1}[{i2}", f"{i1}]{i0}]"
    return [f"[{i1}[{i2}", *pieces.ravel().tolist()]


def complex_pairs(pairs: list, what: str) -> np.ndarray:
    """A list of ``[re, im]`` pairs of numbers as a complex128 vector, bit for bit.

    Numbers are finite ints, floats and numpy reals, not bools; else ValueError.
    """
    try:
        sizes, flat = set(map(len, pairs)), list(chain.from_iterable(pairs))
        kinds = set(map(type, flat)) - {int, float}
        a = np.array(flat, dtype=float)
        ok = sizes <= {2} and all(issubclass(t, (np.integer, np.floating)) for t in kinds)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not (ok and np.all(np.isfinite(a))):
        raise ValueError(f"{what} must be a list of [re, im] pairs of finite numbers")
    return a.view(complex)


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    """The n x n matrix of ``{"n": n, "entries": [[re, im], ...]}``, by :func:`complex_pairs`."""
    n, entries = json_fields(obj, "matrix JSON", n=object, entries=object)
    n = size(n, "matrix JSON size n", 1)
    flat = complex_pairs(entries, "matrix JSON entries")
    if flat.size != n * n:
        raise ValueError("matrix JSON is not square")
    return flat.reshape(n, n)


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`; see :func:`matrix_from_json_obj`."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except RecursionError:  # a RuntimeError; bad input raises ValueError
            raise ValueError(f"{os.fspath(path)}: JSON nested too deep") from None
    return matrix_from_json_obj(obj)
