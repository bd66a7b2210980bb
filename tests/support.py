"""Helpers shared by the test modules: seeded Haar couplers and exact text comparison."""
import numpy as np


def random_unitary(n: int, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """A Haar-random n x n unitary, or orthogonal matrix if ``real``, as complex128.

    The QR factor of a Gaussian matrix, each column's phase fixed by the
    diagonal of R. Draws ``rng.normal`` once for a real matrix and twice
    (real parts, then imaginary parts) for a complex one, so a seed gives
    the same bits on every call.
    """
    z = rng.normal(size=(n, n))
    if not real:
        z = z + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).astype(complex)


def assert_same_text(got: str, expected: str) -> None:
    """Fail unless ``got == expected``, naming the first differing line.

    Pytest's report of a failed ``==`` between two texts diffs them with
    difflib, which takes minutes on multi-megabyte report and matrix texts.
    This module is not rewritten by pytest, so its messages are its own and
    a mismatch costs one pass over the lines.
    """
    if got == expected:
        return
    sizes = f"{len(got)} characters against {len(expected)} expected"
    for number, (line, want) in enumerate(zip(got.split("\n"), expected.split("\n")), 1):
        if line != want:
            raise AssertionError(f"line {number} differs ({sizes}):\n"
                                 f"  got      {line[:200]!r}\n  expected {want[:200]!r}")
    raise AssertionError(f"one text ends where the other goes on ({sizes})")
