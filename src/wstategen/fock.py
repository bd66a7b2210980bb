"""Bosonic mode labels, Fock occupation states, and sparse superpositions.

A mode is a (spatial port, polarization) pair. A :class:`FockState` is the
named tuple ``(n_ports, h, v)`` of a port count and two per-port occupation
vectors, one for H photons and one for V photons. The sorted (mode, count)
view ``FockState.occ`` is derived from them for the JSON and text forms. A
:class:`SuperposedState` is a finite map from Fock states to complex
amplitudes, kept in tuple order of its states as an occupation table and an
amplitude vector, which evolution and post-selection fill and read as arrays.

All types are immutable values: equal occupations compare equal and hash
identically, and everything is safe to share across threads.
"""
from __future__ import annotations

import cmath
import enum
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from . import jsontext, linalg
from .errors import NumericalError, integer, json_fields, size

# Amplitudes below this are dropped on construction so destructive
# interference leaves canonical term maps.
AMPLITUDE_PRUNE_TOL = 1e-12

NORMALIZATION_TOL = 1e-9


class Polarization(str, enum.Enum):
    H = "H"
    V = "V"


class Mode(NamedTuple):
    port: int
    pol: Polarization


class FockState(NamedTuple):
    """Occupation-number state over (port, polarization) modes.

    ``h`` and ``v`` are length-``n_ports`` tuples of per-port photon
    counts for the H and V polarizations. The raw constructor trusts its
    arguments; :meth:`from_counts` validates (mode, count) input.

    A state is the immutable tuple ``(n_ports, h, v)``: it equals and
    hashes as that plain tuple, has length 3, iterates over its three
    fields and orders as tuples do, which for one port count is
    lexicographic in ``h`` and then ``v``.
    """

    n_ports: int
    h: tuple[int, ...]
    v: tuple[int, ...]

    @classmethod
    def from_counts(cls, counts: Mapping[Mode, int] | Iterable[tuple[Mode, int]],
                    n_ports: int) -> "FockState":
        """State from integer (mode, count) pairs; counts of a repeated mode add up."""
        n_ports = size(n_ports, "n_ports", 1)
        vecs = {Polarization.H: [0] * n_ports, Polarization.V: [0] * n_ports}
        items = counts.items() if isinstance(counts, Mapping) else counts
        for mode, count in items:
            mode = Mode(integer(mode[0], "ports"), Polarization(mode[1]))
            count = integer(count, "counts")
            if count < 0:
                raise ValueError(f"negative photon count {count} for mode {mode}")
            if not 0 <= mode.port < n_ports:
                raise ValueError(f"port {mode.port} out of range for {n_ports} ports")
            vecs[mode.pol][mode.port] += count
        return cls(n_ports, tuple(vecs[Polarization.H]), tuple(vecs[Polarization.V]))

    @property
    def occ(self) -> tuple[tuple[Mode, int], ...]:
        """(Mode, count) pairs with count > 0, by port then polarization (H before V)."""
        return tuple((Mode(port, pol), c) for port, counts in enumerate(zip(self.h, self.v))
                     for pol, c in zip(Polarization, counts) if c)

    def count(self, mode: Mode) -> int:
        return self.occupation_vector(mode.pol)[mode.port] if 0 <= mode.port < self.n_ports else 0

    def total_photons(self) -> int:
        return sum(self.h) + sum(self.v)

    def photons_per_pol(self) -> dict[Polarization, int]:
        return {Polarization.H: sum(self.h), Polarization.V: sum(self.v)}

    def occupation_vector(self, pol: Polarization) -> tuple[int, ...]:
        """Per-port counts for one polarization, length n_ports."""
        return self.h if pol == Polarization.H else self.v

    def spatial_counts(self) -> tuple[int, ...]:
        """Per-port counts summed over polarization (what a non-resolving detector sees)."""
        _, h, v = self
        return tuple(map(operator.add, h, v))

    def to_json_obj(self) -> dict:
        return {
            "nPorts": self.n_ports,
            "occ": [{"port": m.port, "pol": m.pol.value, "count": c} for m, c in self.occ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FockState":
        n_ports, occ = json_fields(obj, "Fock state JSON", nPorts=object, occ=list)
        entries = [json_fields(e, "Fock state occ entry", port=object, pol=object, count=object)
                   for e in occ]
        return cls.from_counts((((port, pol), count) for port, pol, count in entries), n_ports)

    def __str__(self) -> str:
        return ket_texts([self])[0]


class _KetPieces(dict):
    """Ket text of one port, by (port, H count, V count); "" for an empty port."""

    def __missing__(self, key: tuple[int, int, int]) -> str:
        port, ch, cv = key
        text = self[key] = " ".join(
            f"{pol}{port}" + (f"^{c}" if c > 1 else "") for pol, c in (("H", ch), ("V", cv)) if c)
        return text


def ket_texts(states: Iterable[FockState]) -> list[str]:
    """Text kets of ``states``, e.g. ``|H0^2 V0 V3>``, or ``|vac;n>`` for the vacuum.

    Modes appear by port, H before V, with ``^c`` for a count c > 1. Each
    ket joins per-port pieces cached by (port, H count, V count), which a
    list of many states shares, so no ``occ`` view is built.
    """
    pieces = _KetPieces()
    kets = []
    for n_ports, h, v in states:
        text = " ".join(filter(None, map(pieces.__getitem__, zip(range(n_ports), h, v))))
        kets.append(f"|{text}>" if text else f"|vac;{n_ports}>")
    return kets


# Rows per ``tolist`` call when a whole table is read row by row or written as JSON.
_BLOCK = 1024


def _listed(a: np.ndarray) -> Iterator:
    """``iter(a.tolist())``, listing a block of rows at a time so few Python objects live."""
    for start in range(0, len(a), _BLOCK):
        yield from a[start:start + _BLOCK].tolist()


def row_keys(table: np.ndarray) -> list[bytes]:
    """The bytes of each row of an occupation table, as int64: equal rows, equal keys."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    return table.view(np.dtype((np.void, table.shape[1] * 8))).ravel().tolist()


def fock_states(n_ports: int, table: np.ndarray) -> list[FockState]:
    """The :class:`FockState` of each row of an occupation table (``h`` then ``v`` columns)."""
    return [FockState(n_ports, tuple(row[:n_ports]), tuple(row[n_ports:]))
            for row in table.tolist()]


class Product:
    """Terms of a :class:`SuperposedState` as arrays: every combination of one row per factor.

    Each factor is an ``(occupations, amplitudes)`` pair: a 2-D table of
    int rows, whose dtype the terms keep, and one complex amplitude per
    row. A term puts one row of each factor side by side, first factor
    major, so the factors' columns add up to the ``h`` then ``v`` columns
    of a state, and multiplies their amplitudes bit for bit as Python
    multiplies complex numbers. The caller keeps each factor's rows
    distinct and ascending, so the terms are too, and gives every term the
    same photon count per polarization; neither is checked. The length is
    the number of terms.
    """

    __slots__ = ("factors",)

    def __init__(self, *factors: tuple[Sequence[Sequence[int]] | np.ndarray,
                                       Sequence[complex] | np.ndarray]):
        self.factors = factors

    def __len__(self) -> int:
        return math.prod(len(amps) for _, amps in self.factors)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The occupation table and the amplitude vector of the terms.

        Each product is written in its real form, ``a.real*b.real -
        a.imag*b.imag`` and ``a.real*b.imag + a.imag*b.real``: numpy's
        complex ``*`` gives other bits than Python's.
        """
        (occ, amps), *rest = self.factors
        occ, amps = np.asarray(occ), np.asarray(amps, dtype=complex)
        for table, b in rest:
            table, b = np.asarray(table), np.asarray(b, dtype=complex)
            ar, ai, br, bi = amps.real[:, None], amps.imag[:, None], b.real, b.imag
            prod = np.empty((len(amps), len(b)), dtype=complex)
            np.subtract(ar * br, ai * bi, out=prod.real)
            np.add(ar * bi, ai * br, out=prod.imag)
            width = occ.shape[1]
            rows = np.empty((len(occ), len(table), width + table.shape[1]),
                            dtype=np.result_type(occ, table))
            rows[:, :, :width] = occ[:, None, :]
            rows[:, :, width:] = table[None, :, :]
            occ, amps = rows.reshape(prod.size, -1), prod.ravel()
        return occ, amps


class SuperposedState:
    """Finite map FockState -> complex amplitude over a fixed port count.

    All member states must share the port count and the photon totals per
    polarization. Amplitudes below ``AMPLITUDE_PRUNE_TOL`` are dropped, and so
    are the sums of a repeated state's amplitudes that fall below it.
    Normalization is enforced unless the owning operation passes
    ``require_normalized=False`` (explicitly-unnormalized intermediates).

    The terms are stored as two read-only arrays in ascending tuple order
    of their states: ``occupations``, an int table with one row per term
    (the ``h`` counts, then the ``v`` counts; int8 when built by ``evolve``,
    whose photon cap keeps counts small), and ``amplitudes``, a complex128
    vector. :class:`FockState` objects are built only when the
    terms are iterated, listed, looked up or printed.
    """

    def __init__(self, terms: Mapping[FockState, complex] | Iterable[tuple[FockState, complex]]
                 | Product, n_ports: int, require_normalized: bool = True):
        n_ports = size(n_ports, "n_ports", 1)
        if isinstance(terms, Product):
            occ, amps = terms.arrays()
            if occ.shape[1] != 2 * n_ports:
                raise ValueError(f"term table has {occ.shape[1]} columns, expected {2 * n_ports}")
            amps = amps + 0.0  # to both parts, as the mapping form's first addition to 0.0
            # np.hypot has the bits of Python's abs(complex); np.abs does not.
            mag = np.hypot(amps.real, amps.imag)
            if not math.isfinite(mag.max(initial=0.0)):
                state = fock_states(n_ports, occ[~np.isfinite(mag)][:1])[0]
                raise ValueError(f"non-finite amplitude for {state}")
            if mag.min(initial=math.inf) < AMPLITUDE_PRUNE_TOL:
                keep = mag >= AMPLITUDE_PRUNE_TOL
                occ, amps = occ[keep], amps[keep]
            added = _listed(amps)
        else:
            items = terms.items() if isinstance(terms, Mapping) else terms
            kept: dict[FockState, complex] = {}
            for state, amp in items:
                amp = complex(amp)
                if not cmath.isfinite(amp):
                    raise ValueError(f"non-finite amplitude for {state}")
                if abs(amp) < AMPLITUDE_PRUNE_TOL:
                    continue
                if state.n_ports != n_ports:
                    raise ValueError(f"term {state} has {state.n_ports} ports, expected {n_ports}")
                kept[state] = kept.get(state, 0.0) + amp
            # A repeated state's amplitudes add up; drop the sums that cancel.
            kept = {s: a for s, a in kept.items() if abs(a) >= AMPLITUDE_PRUNE_TOL}
            if len({(sum(h), sum(v)) for _, h, v in kept}) > 1:
                raise ValueError("terms differ in photon count per polarization")
            states = sorted(kept)
            try:
                occ = np.array([h + v for _, h, v in states], dtype=np.int64)
            except OverflowError:
                raise ValueError("photon counts must be below 2**63") from None
            occ = occ.reshape(len(states), 2 * n_ports)
            amps = np.array([kept[s] for s in states], dtype=complex)
            added = kept.values()
        if require_normalized:
            # In the order the terms were added, as a Python sum.
            norm_sq = sum(abs(a) ** 2 for a in added)
            if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
                raise NumericalError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        occ.flags.writeable = amps.flags.writeable = False
        self.n_ports = n_ports
        self.occupations = occ
        self.amplitudes = amps
        self._index: dict[bytes, int] | None = None

    @property
    def terms(self) -> dict[FockState, complex]:
        return dict(self)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __iter__(self) -> Iterator[tuple[FockState, complex]]:
        return zip(fock_states(self.n_ports, self.occupations), self.amplitudes.tolist())

    def row_index(self) -> dict[bytes, int]:
        """Row number of each occupation row, by the row's bytes; built on the first call."""
        if self._index is None:
            self._index = {key: i for i, key in enumerate(row_keys(self.occupations))}
        return self._index

    def amplitude(self, state: FockState) -> complex:
        n_ports, h, v = state
        if n_ports != self.n_ports:
            return 0.0 + 0.0j
        try:
            key = np.array(h + v, dtype=np.int64).tobytes()
        except OverflowError:  # no term holds 2**63 photons in a mode
            return 0.0 + 0.0j
        i = self.row_index().get(key)
        return 0.0 + 0.0j if i is None else self.amplitudes[i].item()

    def kets(self) -> list[str]:
        """:func:`ket_texts` of the terms, in term order."""
        n = self.n_ports
        # ket_texts zips each row with range(n), so the full row serves as ``h``.
        return ket_texts((n, row, row[n:]) for row in _listed(self.occupations))

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in _listed(self.amplitudes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperposedState):
            return NotImplemented
        return (self.n_ports == other.n_ports
                and np.array_equal(self.occupations, other.occupations)
                and np.array_equal(self.amplitudes, other.amplitudes))

    def allclose(self, other: "SuperposedState", tol: float = 1e-9) -> bool:
        """Term-for-term amplitude agreement within ``tol``."""
        if self.n_ports != other.n_ports:
            return False
        mine, theirs = self.terms, other.terms
        return all(abs(mine.get(s, 0j) - theirs.get(s, 0j)) <= tol for s in mine.keys() | theirs)

    def to_json_obj(self) -> dict:
        return jsontext.expand(self.json_frame())

    def json_frame(self) -> dict:
        """:meth:`to_json_obj` with the term list as a :mod:`jsontext` chunk writer."""
        return {"nPorts": self.n_ports, "terms": self._terms_chunks}

    def _terms_chunks(self, depth: int) -> list[str]:
        """Pieces of the indent-2 JSON text of the term list at nesting ``depth``.

        Each piece is a shared constant, the cached ``occ`` entries of one port
        or the ``repr`` of one amplitude part. None is a string per term: those
        miss Python's small-object allocator, and their leftover heap raised
        the benchmark's peak RSS. Numpy keys the occupied ports of ``_BLOCK``
        rows at a time, which bounds the arrays and lists alive at once, and
        Python then takes one step per row, none per port.
        """
        if not len(self):
            return ["[]"]
        n, table = self.n_ports, self.occupations
        i0, i1, i2, i3, i4, i5 = ("\n" + "  " * (depth + k) for k in range(6))
        term_end = f"{i2}]{i1}}}"
        state_head = f'{i1}{{{i2}"state": {{{i3}"nPorts": {n},{i3}"occ": '
        amp_head = f'{i2}}},{i2}"amp": [{i3}'
        head, sep = f"{term_end},{state_head}", f",{i3}"
        closes = (f"[]{amp_head}", f"{i3}]{amp_head}")  # by whether the row has photons
        # An occ entry's key is ((port * k + H count) * k + V count) * 2, plus 1
        # if it opens its row's list; counts too large for that are keyed by rank.
        counts = range(int(table.max()) + 1)  # the count of each rank
        if 2 * n * len(counts) ** 2 >= 2**63:
            counts = np.unique(np.append(table, 0))
            table = np.searchsorted(counts, table)
        k, pieces = len(counts), {}
        weights, port_keys = np.array([2 * k, 2]), np.arange(n, dtype=np.int64) * (2 * k * k)

        def piece(key: int) -> str:
            port, rest = divmod(key >> 1, k * k)
            ch, cv = divmod(rest, k)
            mode = f'{i4}{{{i5}"port": {port},{i5}"pol": '
            text = f'{mode}"H",{i5}"count": {counts[ch]}{i4}}}' if ch else ""
            if cv:
                text += f'{"," if ch else ""}{mode}"V",{i5}"count": {counts[cv]}{i4}}}'
            return ("[" if key & 1 else ",") + text

        out = ["[" + state_head]
        for start in range(0, len(table), _BLOCK):
            occ, amps = table[start:start + _BLOCK], self.amplitudes[start:start + _BLOCK]
            key = weights @ occ.reshape(len(occ), 2, n)  # 2 * (H * k + V) by (row, port)
            flat = key.ravel().nonzero()[0]  # the occupied ports, row-major
            key += port_keys
            key = key.ravel()[flat]
            rows = flat // n
            key[1:] += rows[1:] != rows[:-1]
            keys = key.tolist()
            if keys:
                keys[0] += 1  # a block starts at a row
            for new in set(keys).difference(pieces):
                pieces[new] = piece(new)
            entries = list(map(pieces.__getitem__, keys))
            parts = map(repr, amps.view(np.float64).tolist())
            end = 0
            # Per row: its entries, its occ close, re, sep and im, and the next row's head.
            for width, real, imag in zip(np.bincount(rows, minlength=len(occ)).tolist(),
                                         parts, parts):
                out += entries[end:end + width]
                out += (closes[width > 0], real, sep, imag, head)
                end += width
        out[-1] = f"{term_end}{i0}]"
        return out

    @classmethod
    def from_json_obj(cls, obj: dict, require_normalized: bool = True) -> "SuperposedState":
        """Inverse of :meth:`to_json_obj`; amplitudes are read by :func:`linalg.complex_pairs`."""
        n_ports, terms = json_fields(obj, "SuperposedState JSON", nPorts=object, terms=list)
        pairs = [json_fields(t, "SuperposedState term", state=object, amp=object) for t in terms]
        amps = linalg.complex_pairs([amp for _, amp in pairs], "SuperposedState amplitudes")
        states = [FockState.from_json_obj(state) for state, _ in pairs]
        return cls(list(zip(states, amps)), n_ports, require_normalized=require_normalized)

    def __repr__(self) -> str:
        body = " + ".join(f"({a:.4g}){s}" for s, a in self)
        return f"SuperposedState({body or '0'})"


def single_photon_state(port: int, pol: Polarization, n_ports: int) -> FockState:
    """One photon in (port, pol), every other mode vacuum."""
    return FockState.from_counts({Mode(port, pol): 1}, n_ports)


def product_input(photons: Sequence[tuple[int, Polarization]], n_ports: int) -> FockState:
    """Fock state with one photon per entry; repeated modes accumulate counts."""
    return FockState.from_counts(((Mode(port, pol), 1) for port, pol in photons), n_ports)


def w_state_path(n: int) -> SuperposedState:
    """Single-photon path W state: one H photon spread uniformly over n ports."""
    n = size(n, "port count", 2)
    return target_from_coefficients([1.0 / math.sqrt(n)] * n, "path")


def w_state_polarization(n: int) -> SuperposedState:
    """n-photon polarization W state: one photon per port, the single V shared uniformly."""
    n = size(n, "port count", 2)
    return target_from_coefficients([1.0 / math.sqrt(n)] * n, "polarization")


def target_from_coefficients(coeffs: Sequence[complex], kind: str) -> SuperposedState:
    """W-shaped state with the given amplitudes.

    Coefficient index k multiplies the term with the excitation (the photon
    for ``kind="path"``, the V polarization for ``kind="polarization"``) at
    port n-1-k: the first coefficient goes with the |00...1>-like term.
    """
    c = linalg.check_normalized_column(coeffs)
    n = c.size
    if kind not in ("path", "polarization"):
        raise ValueError(f"kind must be 'path' or 'polarization', got {kind!r}")
    # Row k of the table is the term of coefficient k for "path", and of
    # coefficient n-1-k for "polarization", so the rows ascend.
    one_hot = np.eye(n, dtype=np.int8)
    if kind == "path":
        return SuperposedState(Product((np.hstack((one_hot[::-1], np.zeros_like(one_hot))), c)), n)
    return SuperposedState(Product((np.hstack((1 - one_hot, one_hot)), c[::-1])), n)
