"""Bosonic mode labels, Fock occupation states, and sparse superpositions.

A mode is a (spatial port, polarization) pair. A :class:`FockState` is the
named tuple ``(n_ports, h, v)`` of a port count and two per-port occupation
vectors, one for H photons and one for V photons, which is the form the
evolution engine, term ordering and post-selection all work in. The sorted
(mode, count) view ``FockState.occ`` is derived from them for the JSON and
text forms. A :class:`SuperposedState` is a finite map from Fock states to
complex amplitudes, kept in tuple order of its states.

All types are immutable values: equal occupations compare equal and hash
identically, and everything is safe to share across threads.
"""
from __future__ import annotations

import cmath
import enum
import math
import operator
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import jsontext, linalg
from .errors import NumericalError, integer, size

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
        pairs = [((e["port"], e["pol"]), e["count"]) for e in obj["occ"]]
        return cls.from_counts(pairs, obj["nPorts"])

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


class SuperposedState:
    """Finite map FockState -> complex amplitude over a fixed port count.

    All member states must share the port count and the photon totals per
    polarization. Amplitudes below ``AMPLITUDE_PRUNE_TOL`` are dropped.
    Normalization is enforced unless the owning operation passes
    ``require_normalized=False`` (explicitly-unnormalized intermediates).
    """

    def __init__(self, terms: Mapping[FockState, complex] | Iterable[tuple[FockState, complex]],
                 n_ports: int, require_normalized: bool = True):
        n_ports = size(n_ports, "n_ports", 1)
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
        if len({(sum(h), sum(v)) for _, h, v in kept}) > 1:
            raise ValueError("terms differ in photon count per polarization")
        if require_normalized:
            norm_sq = sum(abs(a) ** 2 for a in kept.values())
            if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
                raise NumericalError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        self.n_ports = n_ports
        self._terms = dict(sorted(kept.items()))

    @property
    def terms(self) -> dict[FockState, complex]:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[FockState, complex]]:
        return iter(self._terms.items())

    def amplitude(self, state: FockState) -> complex:
        return self._terms.get(state, 0.0 + 0.0j)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self._terms.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperposedState):
            return NotImplemented
        return self.n_ports == other.n_ports and self._terms == other._terms

    def allclose(self, other: "SuperposedState", tol: float = 1e-9) -> bool:
        """Term-for-term amplitude agreement within ``tol``."""
        if self.n_ports != other.n_ports:
            return False
        states = set(self._terms) | set(other._terms)
        return all(abs(self.amplitude(s) - other.amplitude(s)) <= tol for s in states)

    def to_json_obj(self) -> dict:
        return jsontext.expand(self.json_frame())

    def json_frame(self) -> dict:
        """:meth:`to_json_obj` with the term list as a :class:`jsontext.Template`."""
        return {"nPorts": self.n_ports,
                "terms": jsontext.Template(self._terms_chunks, self._terms_tree)}

    def _terms_tree(self) -> list:
        return [{"state": s.to_json_obj(), "amp": [amp.real, amp.imag]}
                for s, amp in self._terms.items()]

    def _terms_chunks(self, depth: int) -> list[str]:
        """Pieces of the indent-2 JSON text of :meth:`_terms_tree` at nesting ``depth``.

        Each piece is a shared constant, a cached port entry or one term's
        short amplitude text, and :func:`jsontext.dumps` joins them once. A
        string per term is too large for Python's small-object allocator,
        and the heap it leaves behind raised the benchmark's peak RSS.
        """
        if not self._terms:
            return ["[]"]
        i0, i1, i2, i3, i4, i5 = ("\n" + "  " * (depth + k) for k in range(6))
        state_head = f'{i1}{{{i2}"state": {{{i3}"nPorts": {self.n_ports},{i3}"occ": '
        occ_close = f"{i3}]"
        amp_head = f'{i2}}},{i2}"amp": [{i3}'
        # The occ entries of one port, by (port, H count, V count); few distinct keys.
        port_text: dict[tuple[int, int, int], str] = {}

        def entry(port: int, pol: str, count: int) -> str:
            return f'{i4}{{{i5}"port": {port},{i5}"pol": "{pol}",{i5}"count": {count}{i4}}}'

        out = []
        sep = "["
        for (_, h, v), amp in self._terms.items():
            out += (sep, state_head)
            occ_sep = "["
            for port, ch, cv in zip(range(self.n_ports), h, v):
                if ch or cv:
                    key = (port, ch, cv)
                    if key not in port_text:
                        port_text[key] = ",".join(
                            entry(port, pol, c) for pol, c in (("H", ch), ("V", cv)) if c)
                    out += (occ_sep, port_text[key])
                    occ_sep = ","
            out += ("[]" if occ_sep == "[" else occ_close,
                    f"{amp_head}{amp.real!r},{i3}{amp.imag!r}{i2}]{i1}}}")
            sep = ","
        out.append(f"{i0}]")
        return out

    @classmethod
    def from_json_obj(cls, obj: dict, require_normalized: bool = True) -> "SuperposedState":
        """Inverse of :meth:`to_json_obj`; amplitudes are read by :func:`linalg.complex_pairs`."""
        amps = linalg.complex_pairs([t["amp"] for t in obj["terms"]], "SuperposedState amplitudes")
        terms = [(FockState.from_json_obj(t["state"]), a) for t, a in zip(obj["terms"], amps)]
        return cls(terms, obj["nPorts"], require_normalized=require_normalized)

    def __repr__(self) -> str:
        body = " + ".join(f"({a:.4g}){s}" for s, a in self._terms.items())
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
    terms = {}
    for k in range(n):
        port = n - 1 - k
        if kind == "path":
            state = single_photon_state(port, Polarization.H, n)
        else:
            photons = [(p, Polarization.V if p == port else Polarization.H) for p in range(n)]
            state = product_input(photons, n)
        terms[state] = complex(c[k])
    return SuperposedState(terms, n)
