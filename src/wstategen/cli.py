"""Command-line front end.

Subcommands::

    wstategen multiport --n 3 --out tritter.json
    wstategen path-w --n 3 [--input-port 0] [--format json|csv|table]
    wstategen polar-w --n 3 [--format json|csv|table]
    wstategen design --target target.json --out unitary.json
    wstategen evolve --matrix m.json --input state.json [--postselect one-per-port]

Exit codes: 0 success, 2 invalid input, 3 numerical or capacity failure;
:func:`main` is the one place that maps exceptions to them.
JSON output is lossless; csv and table round to 12 significant digits,
and the table format annotates values that are (within 1e-12) a small
exact fraction p/q with q <= 64, so 0.111111111111 reads as 1/9.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import jsontext, linalg
from .errors import CapacityError, NumericalError, int_text, json_fields, size
from .evolve import evolve as evolve_state
from .fock import FockState, SuperposedState, probabilities
from .postselect import CoincidencePattern, postselect
from .schemes import run_path_w, run_polarization_w

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

RATIONAL_MAX_DENOMINATOR = 64
RATIONAL_TOL = 1e-12


def fmt12(x: float) -> str:
    return f"{x:.12g}"


def rational_note(x: float) -> str:
    """' (= p/q)' when x is within 1e-12 of a fraction with denominator <= 64, else ''."""
    frac = Fraction(x).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    if frac.denominator > 1 and abs(x - float(frac)) <= RATIONAL_TOL:
        return f" (= {frac})"
    return ""


def rational_notes(values: Sequence[float]) -> list[str]:
    """``[rational_note(x) for x in values]``, with the exact test only where it can note.

    A numpy screen passes over the denominators q = 2..64 on arrays as long
    as ``values`` and flags x when ``|x - rint(x*q)/q|`` is at most
    ``2 * RATIONAL_TOL``. Only flagged values that do not lie that close to
    an integer, and values that are not finite or lie outside [-1, 1], go
    through :func:`rational_note`; every other value gets "".

    The screen misses no note. Distinct fractions with denominators up to
    64 lie at least 1/(64*63) = 1/4032 apart, so the fraction that
    :func:`rational_note` finds for an x within 1e-12 of p/q is p/q itself.
    For x in [-1, 1], ``x*q`` lies within 64e-12 plus round-off of p, so
    ``rint(x*q)/q`` is the float nearest p/q, the same float as
    ``float(Fraction(p, q))``, and the screen measures the very difference
    that :func:`rational_note` compares with ``RATIONAL_TOL``.

    Nor does dropping the values next to an integer. The screen flags every
    x in [-1, 1] within ``2 * RATIONAL_TOL`` of an integer m (``x - m`` is
    exact there), since m = mq/q. Every fraction with a denominator up to 64
    other than m lies at least 1/64 from m, so the nearest one to x is m
    itself, whose denominator is 1, and :func:`rational_note` returns "".
    """
    x = np.asarray(values, dtype=float)
    inside = np.abs(x) <= 1.0
    x = np.where(inside, x, 0.0)
    exact = np.zeros(x.shape, dtype=bool)
    for q in range(2, RATIONAL_MAX_DENOMINATOR + 1):
        exact |= np.abs(x - np.rint(x * q) / q) <= 2 * RATIONAL_TOL
    exact &= np.abs(x - np.rint(x)) > 2 * RATIONAL_TOL
    exact |= ~inside
    notes = [""] * len(x)
    for i in np.flatnonzero(exact).tolist():
        notes[i] = rational_note(values[i])
    return notes


def _print_superposed(state: SuperposedState, fmt: str, stream, heading: str) -> None:
    kets = state.kets()
    amps = state.amplitudes.tolist()
    probs = probabilities(state.amplitudes).tolist()
    if fmt == "csv":
        lines = ["state,re,im,probability\n"]
        lines += [f"{ket},{amp.real:.12g},{amp.imag:.12g},{prob:.12g}\n"
                  for ket, amp, prob in zip(kets, amps, probs)]
    else:
        lines = [f"{heading} ({len(amps)} terms):\n"]
        lines += [f"  {ket}: amp {amp.real:.12g}{amp.imag:+.12g}i  p={prob:.12g}{note}\n"
                  for ket, amp, prob, note in zip(kets, amps, probs, rational_notes(probs))]
    stream.write("".join(lines))


def _load_json(path: str, what: str, parse):
    """``parse`` applied to the JSON in ``path``; any failure becomes one ValueError."""
    try:
        with open(path) as f:
            return parse(json.load(f))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} from {path}: {exc}") from exc


def cmd_multiport(args, stream) -> None:
    linalg.write_matrix(args.out, linalg.dft_multiport(args.n))
    stream.write(f"wrote {args.n}x{args.n} DFT multiport to {args.out}\n")


def cmd_path_w(args, stream) -> None:
    report = run_path_w(args.n, args.input_port)
    if args.format == "json":
        stream.write(report.to_json())
    elif args.format == "csv":
        stream.write("port,probability\n")
        for port, prob in enumerate(report.port_probabilities):
            stream.write(f"{port},{fmt12(prob)}\n")
    else:
        stream.write(f"path-W scheme, n={report.n}, input through DFT multiport\n")
        for port, prob in enumerate(report.port_probabilities):
            stream.write(f"  port {port}: probability {fmt12(prob)}{rational_note(prob)}\n")
        stream.write(f"  success probability: {fmt12(report.success_probability)}\n")  # always 1
        stream.write(f"  fidelity to uniform-phase W: {fmt12(report.fidelity_to_target)}\n")
        stream.write(f"  probability distribution uniform: {report.probability_uniform}\n")


def cmd_polar_w(args, stream) -> None:
    report = run_polarization_w(args.n)
    rows = [("successProbability", report.success_probability),
            ("fidelityToTarget", report.fidelity_to_target),
            ("keptTerms", float(report.post_selection.kept_terms)),
            ("droppedProbability", report.post_selection.dropped_probability)]
    if args.format == "json":
        stream.write(report.to_json())
    elif args.format == "csv":
        stream.write("metric,value\n")
        for name, value in rows:
            stream.write(f"{name},{fmt12(value)}\n")
    else:
        stream.write(f"polarization-W scheme, n={report.n} ({report.reference_note})\n")
        for name, value in rows:
            stream.write(f"  {name}: {fmt12(value)}{rational_note(value)}\n")


def cmd_design(args, stream) -> None:
    target = _load_json(args.target, "target vector",
                        lambda raw: linalg.complex_pairs(raw, "target vector"))
    u = linalg.complete_unitary_from_column(target)

    column_ok = bool(np.max(np.abs(u[:, 0] - target)) <= linalg.UNITARITY_TOL)
    unitary_ok = linalg.verify_unitary(u)
    stream.write(f"column match: {'PASS' if column_ok else 'FAIL'}\n")
    stream.write(f"unitarity: {'PASS' if unitary_ok else 'FAIL'}\n")
    if not (column_ok and unitary_ok):
        raise NumericalError("completed unitary failed verification")
    linalg.write_matrix(args.out, u)
    stream.write(f"wrote completed unitary to {args.out}\n")


def cmd_evolve(args, stream) -> None:
    u = _load_json(args.matrix, "matrix", linalg.matrix_from_json_obj)

    def read_state(raw) -> FockState:
        # Before from_counts, which allocates per port: a short file can ask for billions.
        n_ports = size(json_fields(raw, "Fock state JSON", nPorts=object)[0], "n_ports", 1)
        if n_ports != len(u):
            raise ValueError(f"matrix is {len(u)}x{len(u)} but state has {int_text(n_ports)} ports")
        return FockState.from_json_obj(raw)

    input_state = _load_json(args.input, "input state", read_state)
    out = evolve_state(u, input_state)

    result = None
    if args.postselect is not None:
        result = postselect(out, CoincidencePattern.one_per_port())

    if args.format == "json":
        frame = {"output": out.json_frame()}
        if result is not None:
            frame["postSelection"] = result.json_frame()
        stream.write(jsontext.dumps(frame))
    else:
        _print_superposed(out, args.format, stream, "output state")
        if result is not None:
            stream.write(
                f"post-selection one-per-port: probability "
                f"{fmt12(result.probability)}{rational_note(result.probability)}"
                f", kept {result.kept_terms} terms\n"
            )
            if result.kept_terms:
                _print_superposed(result.conditional, args.format, stream,
                                  "conditional state")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstategen",
        description="Exact simulation of W-state generation with multiport fiber couplers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiport", help="write an n-port DFT coupler matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multiport)

    p = sub.add_parser("path-w", help="run the single-photon path W scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input-port", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=cmd_path_w)

    p = sub.add_parser("polar-w", help="run the multiphoton polarization W scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=cmd_polar_w)

    p = sub.add_parser("design", help="complete a unitary from a target first column")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evolve", help="evolve a Fock state through a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--postselect", choices=["one-per-port"], default=None)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv: list[str] | None = None, stream=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        args.func(args, stream if stream is not None else sys.stdout)
    except (CapacityError, MemoryError) as exc:
        print(f"error: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:  # NumericalError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
