"""Bosonic mode labels, Fock occupation states, and sparse superpositions.

A mode is a (spatial port, polarization) pair. A :class:`FockState` is the
named tuple ``(n_ports, h, v)`` of a port count and two per-port occupation
vectors, one for H photons and one for V photons. The sorted (mode, count)
view ``FockState.occ`` is derived from them for the JSON form. A
:class:`SuperposedState` is a finite map from Fock states to complex
amplitudes, kept in tuple order of its states as an occupation table and an
amplitude vector, which evolution and post-selection fill and read as arrays.

All types are immutable values, safe to share across threads, and equal
occupations compare equal. Modes and Fock states are tuples that hash by
value; a :class:`SuperposedState` defines only equality and is unhashable.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from . import jsontext, linalg
from .errors import NumericalError, int_text, integer, json_fields, size

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
            if not 0 <= mode.port < n_ports:
                raise ValueError(f"port {int_text(mode.port)} out of range for {n_ports} ports")
            if count < 0:  # the port is in range, so the mode is short to write
                raise ValueError(f"negative photon count {int_text(count)} for mode {mode}")
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
        """The text ket, e.g. ``|H0^2 V0 V3>``, or ``|vac;n>`` for the vacuum."""
        ports = [(port, ch, cv) for port, (ch, cv) in enumerate(zip(self.h, self.v)) if ch or cv]
        ports.append((self.n_ports, 0, 0))
        return "".join(_ket_piece(*port, not i) for i, port in enumerate(ports))[:-1]


def probabilities(amplitudes: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Each |a|^2 as ``m * m``, ``m = np.hypot(a.real, a.imag)``, the bits of ``abs(a)``:
    correctly rounded, unlike libm's ``pow(m, 2)``."""
    a = np.asarray(amplitudes, dtype=complex)
    m = np.hypot(a.real, a.imag)
    return m * m


def _add_up(values: np.ndarray) -> float | complex:
    """``0.0 + values[0] + ...`` in order, as ``sum()`` did before 3.12 (``np.sum`` is pairwise)."""
    return (0.0 + values).cumsum()[-1].item() if len(values) else 0.0


def _ket_piece(port: int, ch: int, cv: int, first: bool) -> str:
    """Ket text of one occupied port, from ``|`` if it opens the ket and else from a space;
    port n with no photons ends a ket of n ports and its line, as ``|vac;n>`` if it opens it."""
    if not (ch or cv):
        return f"|vac;{port}>\n" if first else ">\n"
    text = " ".join(f"{pol}{port}" + (f"^{c}" if c > 1 else "")
                    for pol, c in (("H", ch), ("V", cv)) if c)
    return ("|" if first else " ") + text


# Rows per block when a whole table is written as text.
_BLOCK = 1024


def _occ_pieces(table: np.ndarray, n: int, piece: Callable[[int, int, int, bool], str],
                tails: np.ndarray) -> Iterator[np.ndarray]:
    """Per ``_BLOCK`` rows: the texts of each row's occupied ports, its close and its
    row of ``tails``, row-major, as one object array.

    ``piece(port, H count, V count, first)`` is the text of one port, ``first`` if it
    opens its row, and ``piece(n, 0, 0, first)`` closes a row; it is called once per
    distinct argument tuple. Numpy keys the ports a block at a time and gathers their
    texts, so Python takes no step per port or row."""
    # A port's key is ((slot * k + H count) * k + V count) * 2, plus 1 if it opens
    # its row, and decodes to ports[slot]; the close is port n with no photons, and a
    # tail is keyed close + 3, from the 1 its column holds. Where keys of all n ports
    # would outnumber the table's entries, only the ports holding a photon keep their
    # columns: the lookup holds at most 2 * k**2 * (occupied ports) + 4 texts, k <= 25.
    k = int(table.max(initial=0)) + 1
    ports = range(n + 1)
    if 2 * n * k * k + 4 > table.size + _BLOCK:
        occupied = table.reshape(len(table), 2, n).any(axis=(0, 1))
        ports, table = [*occupied.nonzero()[0].tolist(), n], table[:, np.tile(occupied, 2)]
    n = len(ports) - 1  # the ports the table holds: slot s is port ports[s]
    close, weights = 2 * n * k * k, np.array([2 * k, 2])
    port_keys = np.array([*range(0, close, 2 * k * k), close - 1] + [close + 1] * tails.shape[1])
    texts = np.empty(close + 4, dtype=object)
    have = np.zeros(close + 4, dtype=bool)
    have[-1] = True  # the tails' slot, filled per block
    for start in range(0, len(table), _BLOCK):
        occ = table[start:start + _BLOCK]
        key = np.ones((len(occ), len(port_keys)), dtype=np.int64)
        np.matmul(weights, occ.reshape(len(occ), 2, n), out=key[:, :n])  # 2 * (H * k + V)
        flat = key.ravel().nonzero()[0]  # the occupied ports, closes and tails, row-major
        key += port_keys
        key = key.ravel()[flat]
        key[1:] += key[:-1] >= close  # a row opens after a close or a tail
        key[0] += 1  # and at the start of a block
        new = key[~have[key]]
        for key_ in set(new.tolist()):
            slot, rest = divmod(key_ >> 1, k * k)
            texts[key_] = piece(ports[slot], rest // k, rest % k, bool(key_ & 1))
        have[new] = True
        pieces = texts[key]
        pieces[key > close + 1] = tails[start:start + _BLOCK].ravel()
        yield pieces


def row_keys(table: np.ndarray) -> list[bytes]:
    """The int8 bytes of each row of an occupation table: equal rows get equal keys."""
    return np.ascontiguousarray(table, dtype=np.int8).view(f"V{table.shape[1]}").ravel().tolist()


def fock_states(n_ports: int, table: np.ndarray) -> list[FockState]:
    """The :class:`FockState` of each row of an occupation table (``h`` then ``v`` columns)."""
    return [FockState(n_ports, tuple(row[:n_ports]), tuple(row[n_ports:]))
            for row in table.tolist()]


class Table:
    """Terms of a :class:`SuperposedState` as arrays: a 2-D table of int rows (the ``h``
    counts, then the ``v`` counts) and one complex amplitude per row.

    The caller keeps the rows distinct and ascending and gives every row the
    same photon count per polarization, at most ``linalg.PHOTON_CAP``; neither
    is checked, but the shapes are. A table of another dtype than int8 is
    checked to hold counts 0 to the cap, then cast. The length is the number of rows.
    """

    __slots__ = ("occupations", "amplitudes")

    def __init__(self, occupations: Sequence[Sequence[int]] | np.ndarray,
                 amplitudes: Sequence[complex] | np.ndarray):
        self.occupations, self.amplitudes = occupations, amplitudes

    def __len__(self) -> int:
        return len(self.occupations)


@functools.lru_cache(maxsize=16)
def _term_texts(depth: int, n_ports: int) -> tuple[Callable[..., str], str, int, str]:
    """The :func:`_occ_pieces` piece, re/im separator, length of the text before the first
    term, and last piece of a JSON term list at nesting ``depth``, cached with the port count."""
    i0, i1, i2, i3, i4, i5 = ("\n" + "  " * (depth + k) for k in range(6))
    term_end = f"{i2}]{i1}}}"
    head = f'{term_end},{i1}{{{i2}"state": {{{i3}"nPorts": {n_ports},{i3}"occ": '
    amp_head = f'{i2}}},{i2}"amp": [{i3}'
    opens, closes = (",", f"{head}["), (f"{i3}]{amp_head}", f"{head}[]{amp_head}")
    at, end = f'{i4}{{{i5}"port": ', f"{i4}}}"
    count_h, count_v = (f',{i5}"pol": "{pol}",{i5}"count": ' for pol in "HV")

    def piece(port: int, ch: int, cv: int, first: bool) -> str:
        if not (ch or cv):  # the row's occ close
            return closes[first]
        h = f"{at}{port}{count_h}{ch}{end}" if ch else ""
        v = f"{',' if ch else ''}{at}{port}{count_v}{cv}{end}" if cv else ""
        return f"{opens[first]}{h}{v}"

    return piece, f",{i3}", len(term_end) + 1, f"{term_end}{i0}]"


class SuperposedState:
    """Finite map FockState -> complex amplitude over a fixed port count.

    All member states must share the port count and the photon totals per
    polarization, each at most ``linalg.PHOTON_CAP`` (24; more raise
    CapacityError). A repeated state's amplitudes add up, and the amplitudes
    and sums below ``AMPLITUDE_PRUNE_TOL`` are dropped.
    Normalization is enforced unless the owning operation passes
    ``require_normalized=False`` (explicitly-unnormalized intermediates).

    The terms are stored as two read-only arrays in ascending tuple order
    of their states: ``occupations``, an int8 table with one row per term
    (the ``h`` counts, then the ``v`` counts), and ``amplitudes``, a
    complex128 vector. Its kets and JSON term list are written from the
    table rows by one per-port renderer; :class:`FockState` objects are
    built only when the terms are iterated, listed or looked up.
    """

    def __init__(self, terms: Mapping[FockState, complex] | Iterable[tuple[FockState, complex]]
                 | Table, n_ports: int, require_normalized: bool = True):
        n_ports = size(n_ports, "n_ports", 1)
        if not isinstance(terms, Table):
            items = terms.items() if isinstance(terms, Mapping) else terms
            sums: dict[FockState, complex] = {}
            for state, amp in items:
                if state.n_ports != n_ports:
                    raise ValueError(f"term {state} has {state.n_ports} ports, expected {n_ports}")
                # A NaN amplitude stays, for the non-finite check below; sums that cancel go.
                if not abs(amp := complex(amp)) < AMPLITUDE_PRUNE_TOL:
                    sums[state] = sums.get(state, 0.0) + amp
            states = sorted(s for s, a in sums.items() if not abs(a) < AMPLITUDE_PRUNE_TOL)
            totals = {(sum(h), sum(v)) for _, h, v in states}
            if len(totals) > 1:
                raise ValueError("terms differ in photon count per polarization")
            if (low := min((min(h + v) for _, h, v in states), default=0)) < 0:
                raise ValueError(f"negative photon count {int_text(low)}")
            for k_h, k_v in totals:  # the one pair, if any term is left
                linalg.check_photon_cap(k_h, k_v)
            occ = np.array([h + v for _, h, v in states], dtype=np.int8)
            terms = Table(occ.reshape(len(states), 2 * n_ports), [sums[s] for s in states])
        occ, amps = np.asarray(terms.occupations), np.asarray(terms.amplitudes, dtype=complex)
        if occ.ndim != 2 or amps.shape != occ.shape[:1]:
            raise ValueError(f"term table of shape {occ.shape} does not fit {amps.shape} amplitudes")
        if occ.shape[1] != 2 * n_ports:
            raise ValueError(f"term table has {occ.shape[1]} columns, expected {2 * n_ports}")
        if occ.dtype != np.int8:  # checked before the cast, so no count wraps
            if not 0 <= occ.min(initial=0) <= occ.max(initial=0) <= linalg.PHOTON_CAP:
                raise ValueError(f"photon counts must be 0 to {linalg.PHOTON_CAP}")
            occ = occ.astype(np.int8)
        amps = amps + 0.0  # to both parts, as Python's 0.0 + amp does
        # np.hypot has the bits of Python's abs(complex); np.abs does not.
        mag = np.hypot(amps.real, amps.imag)
        if not math.isfinite(mag.max(initial=0.0)):
            state = fock_states(n_ports, occ[~np.isfinite(mag)][:1])[0]
            raise ValueError(f"non-finite amplitude for {state}")
        if mag.min(initial=math.inf) < AMPLITUDE_PRUNE_TOL:
            keep = mag >= AMPLITUDE_PRUNE_TOL
            occ, amps = occ[keep], amps[keep]
        occ.flags.writeable = amps.flags.writeable = False
        self.n_ports = n_ports
        self.occupations = occ
        self.amplitudes = amps
        self._index: dict[bytes, int] | None = None
        if require_normalized:
            norm_sq = self.norm_sq()
            if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
                raise NumericalError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")

    @property
    def terms(self) -> dict[FockState, complex]:
        return dict(self)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __iter__(self) -> Iterator[tuple[FockState, complex]]:
        return zip(fock_states(self.n_ports, self.occupations), self.amplitudes.tolist())

    def row_index(self) -> dict[bytes, int]:
        """Row number of each occupation row, by its :func:`row_keys` key; built on the first call."""
        if self._index is None:
            self._index = {key: i for i, key in enumerate(row_keys(self.occupations))}
        return self._index

    def amplitude(self, state: FockState) -> complex:
        n_ports, h, v = state
        if n_ports != self.n_ports or not all(0 <= c <= linalg.PHOTON_CAP for c in h + v):
            return 0.0 + 0.0j
        i = self.row_index().get(row_keys(np.array([h + v], dtype=np.int8))[0])
        return 0.0 + 0.0j if i is None else self.amplitudes[i].item()

    def kets(self) -> list[str]:
        """The ``str`` of each term's :class:`FockState`, in term order."""
        kets: list[str] = []
        no_tails = np.empty((len(self), 0), dtype=object)
        for pieces in _occ_pieces(self.occupations, self.n_ports, _ket_piece, no_tails):
            kets += "".join(pieces.tolist()).split("\n")
            kets.pop()  # after the block's last line
        return kets

    def norm_sq(self) -> float:
        return _add_up(probabilities(self.amplitudes))

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
        or the ``repr`` of one distinct amplitude part. None is a string per
        term: those miss Python's small-object allocator, and their leftover
        heap raised the benchmark's peak RSS.
        """
        if not len(self):
            return ["[]"]
        piece, sep, cut, last = _term_texts(depth, self.n_ports)
        # Per row: its entries, from the head to the occ close, then re, sep and im.
        tails = np.empty((len(self), 3), dtype=object)
        tails[:, ::2] = jsontext.float_reprs(self.amplitudes.view(np.float64)).reshape(-1, 2)
        tails[:, 1] = sep
        out: list[str] = []
        for pieces in _occ_pieces(self.occupations, self.n_ports, piece, tails):
            out += pieces.tolist()
        out[0] = "[" + out[0][cut:]  # the first head opens the list
        out.append(last)
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
        terms = zip(self.kets(), self.amplitudes.tolist())
        body = " + ".join(f"({a:.4g}){ket}" for ket, a in terms)
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
        return SuperposedState(Table(np.hstack((one_hot[::-1], np.zeros_like(one_hot))), c), n)
    return SuperposedState(Table(np.hstack((1 - one_hot, one_hot)), c[::-1]), n)
