"""Span tracing of ``wstategen`` from outside the package.

:class:`Tracer` wraps the public callables at each layer boundary of the
package, keeps one span per call in memory (name, start, end, parent) and
counts the work each call did. The wrappers are installed only for the
duration of a ``with tracer.installed():`` block and every patched
attribute is restored when it exits, so untraced code never sees them.

A function imported by name into other modules (``from .linalg import
permanent``) is bound in several module namespaces; installing replaces
every binding of the same function object in every ``wstategen`` module,
and restoring puts each one back. ``wstategen.evolve`` is the function,
not the module, so modules are looked up in ``sys.modules``.
"""
from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) of the wrapped callables. An attribute
# "Class.method" patches the method on the class.
TARGETS = {
    "linalg.permanent": [("wstategen.linalg", "permanent")],
    "linalg.coupler": [("wstategen.linalg", "dft_multiport"),
                       ("wstategen.linalg", "canonical_quarter"),
                       ("wstategen.linalg", "complete_unitary_from_column")],
    "linalg.verify_unitary": [("wstategen.linalg", "verify_unitary")],
    "linalg.matrix_io": [("wstategen.linalg", "read_matrix"),
                         ("wstategen.linalg", "write_matrix"),
                         ("wstategen.linalg", "matrix_to_json_obj"),
                         ("wstategen.linalg", "matrix_from_json_obj")],
    "fock.from_counts": [("wstategen.fock", "FockState.from_counts")],
    "fock.superposed": [("wstategen.fock", "SuperposedState.__init__")],
    "evolve": [("wstategen.evolve", "evolve")],
    "postselect": [("wstategen.postselect", "postselect"),
                   ("wstategen.postselect", "branch_amplitude_report")],
    "postselect.fidelity": [("wstategen.postselect", "fidelity")],
    "schemes.run": [("wstategen.schemes", "run_path_w"),
                    ("wstategen.schemes", "run_polarization_w"),
                    ("wstategen.schemes", "run_designed_path")],
    "schemes.serialize": [("wstategen.schemes", "SchemeReport.to_json"),
                          ("wstategen.schemes", "SchemeReport.to_json_obj")],
    "cli.main": [("wstategen.cli", "main")],
}


def _count_permanent(counts, args, kwargs, result):
    k = len(args[0])
    counts["linalg.permanent.gray_steps"] += (1 << k) - 1
    counts["linalg.permanent.max_k"] = max(counts["linalg.permanent.max_k"], k)


def _count_superposed(counts, args, kwargs, result):
    terms = args[1] if len(args) > 1 else kwargs["terms"]
    if hasattr(terms, "__len__"):
        counts["fock.superposed.terms_in"] += len(terms)
    counts["fock.superposed.terms_kept"] += len(args[0])


def _count_evolve(counts, args, kwargs, result):
    state = args[1]
    n = state.n_ports
    sizes = [math.comb(n + k - 1, k) for k in state.photons_per_pol().values()]
    counts["evolve.patterns"] += sum(sizes)
    counts["evolve.pairs"] += math.prod(sizes)
    counts["evolve.terms_out"] += len(result)


def _count_postselect(counts, args, kwargs, result):
    if hasattr(result, "kept_terms"):
        counts["postselect.terms_in"] += len(args[0])
        counts["postselect.terms_kept"] += result.kept_terms


def _count_serialize(counts, args, kwargs, result):
    if isinstance(result, str):
        counts["schemes.serialize.bytes"] += len(result)


def _count_cli(counts, args, kwargs, result):
    stream = kwargs.get("stream", args[1] if len(args) > 1 else None)
    if stream is not None and hasattr(stream, "tell"):
        counts["cli.out_bytes"] += stream.tell()


COUNTERS = {
    "linalg.permanent": _count_permanent,
    "fock.superposed": _count_superposed,
    "evolve": _count_evolve,
    "postselect": _count_postselect,
    "schemes.serialize": _count_serialize,
    "cli.main": _count_cli,
}


class Tracer:
    """In-memory spans and counts for calls into ``wstategen``.

    ``spans`` holds ``(name, start, end, parent)`` tuples; ``parent`` is
    the index of the enclosing span or -1. ``counts`` holds the work
    counters and the number of calls per span name.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans  # reset() replaces the list between passes
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in every ``wstategen`` module; restore all on exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if key == "wstategen" or key.startswith("wstategen.")]
            for name, targets in TARGETS.items():
                for module_name, attr in targets:
                    owner = sys.modules[module_name]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(owner, cls_name)
                        original = cls.__dict__[meth]
                        if isinstance(original, classmethod):
                            patched = classmethod(self.wrap(name, original.__func__))
                        else:
                            patched = self.wrap(name, original)
                        restore.append((cls, meth, original))
                        setattr(cls, meth, patched)
                        continue
                    original = getattr(owner, attr)
                    patched = self.wrap(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, key, original))
                                setattr(module, key, patched)
            yield self
        finally:
            for obj, key, original in reversed(restore):
                setattr(obj, key, original)


def self_times(spans) -> tuple[dict[str, float], list[float]]:
    """Total self time per span name, and the self time of each span by index.

    A span's self time is its duration minus the durations of its direct
    children; spans nest, so that is the part of its interval no child covers.
    """
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, _, _, _), t in zip(spans, own):
        totals[name] += t
    return dict(totals), own


def root_of(spans) -> list[int]:
    """Index of the outermost enclosing span of every span."""
    roots = []
    for i, (_, _, _, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots
