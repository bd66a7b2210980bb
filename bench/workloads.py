"""Seeded workload inputs: the op list of each workload and the files it reads.

``write_inputs(workload, seed, work_dir)`` writes every input file of the
workload under ``work_dir`` and the op list as ``plan.json``. It uses only
the standard library and the ``wstategen`` CLI (for couplers made with the
``multiport`` and ``design`` subcommands), so the set-up time it measures is
the program's, not numpy's random generator's. The seed changes values,
port placements and op order, never the sizes: every seed asks for the same
amount of work, so run-to-run spread is the machine's, not the inputs'.

Each op is a dict with:

- ``id``: unique within the plan;
- ``role``: ``large`` (the workload's largest op), ``small`` (the per-call
  overhead probes) or ``other``;
- ``kind``: how ``run.py`` executes it (``polar-api``, ``path-api``,
  ``designed-api`` or ``cli``);
- ``check``: the output check ``checks.py`` applies;
- kind-specific arguments. File paths are relative to ``work_dir``.
"""
from __future__ import annotations

import io
import json
import math
import os
import random

WORKLOADS = ("polar-sweep", "path-wide", "evolve-files")

# polar-sweep: small reports repeated per pass, by n (through cli.main).
# Each n takes about three times as long as the one before, so the small-op
# latencies form three groups; these counts put the median in the middle
# of the n=4 group and the 90th percentile inside the n=5 group, away from
# the group edges where a percentile would jump between groups.
POLAR_SMALL_REPEATS = {3: 6, 4: 8, 5: 6}
POLAR_API_SIZES = (6, 7, 8)
POLAR_LARGE_N = 8

# path-wide: wide single-photon runs and designed paths.
PATH_WIDE_SIZES = (64, 128, 256)
PATH_LARGE_N = 256
PATH_SMALL_SIZES = tuple(range(3, 17))
PATH_SMALL_FORMATS = ("json", "csv", "table")

# evolve-files cases: name -> (ports, coupler, H photons, V photons).
# "householder" couplers come from the design subcommand on a seeded
# target, so no output amplitude vanishes and the term count is fixed;
# DFT couplers suppress some terms depending on the input placement,
# so they are kept to the small cases.
EVOLVE_CASES = {
    "n4-mixed": (4, "dft", 2, 2),
    "n5-mixed": (5, "dft", 2, 2),
    "n6-mixed": (6, "householder", 3, 3),
    "n7-mixed": (7, "householder", 4, 3),
    "n5-bunched8": (5, "householder", 8, 0),
}
EVOLVE_LARGE = ("n7-mixed", "json")
EVOLVE_FORMATS = ("json", "table", "csv")
# The 8-photon single-sector case is fixed at occupations 3/3/2.
BUNCHED8_COUNTS = (3, 3, 2)
# Sizes of the multiport and design calls of each pass: with the warm
# polar-w calls they are the small ops, whose latencies spread evenly from
# about 1 to 4 ms, so no percentile sits on a gap between op kinds.
FILE_OP_SIZES = tuple(range(4, 17))
# The in-process form of the command cli_cold_ms times in a fresh process.
WARM_CLI_FORMATS = ("json", "table")
WARM_CLI_REPEATS = 2


def random_target(rng: random.Random, n: int) -> list[list[float]]:
    """A normalized complex column as ``[[re, im], ...]`` (the design target format)."""
    z = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in z))
    return [[x.real / norm, x.imag / norm] for x in z]


def bunched_placement(rng: random.Random, n_ports: int, photons: int) -> dict[int, int]:
    """Seeded per-port counts for ``photons`` photons with at least one port doubly occupied."""
    if photons == 0:
        return {}
    while True:
        counts: dict[int, int] = {}
        for _ in range(photons):
            p = rng.randrange(n_ports)
            counts[p] = counts.get(p, 0) + 1
        if photons < 2 or max(counts.values()) >= 2:
            return dict(sorted(counts.items()))


def fock_json(n_ports: int, h: dict[int, int], v: dict[int, int]) -> dict:
    occ = [{"port": p, "pol": "H", "count": c} for p, c in h.items()]
    occ += [{"port": p, "pol": "V", "count": c} for p, c in v.items()]
    return {"nPorts": n_ports, "occ": occ}


def _dump(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _cli(argv: list[str]) -> None:
    from wstategen import cli

    rc = cli.main(argv, stream=io.StringIO())
    if rc != 0:
        raise RuntimeError(f"set-up command {argv} exited with {rc}")


def _polar_sweep(rng: random.Random, work_dir: str) -> list[dict]:
    ops = [
        {"id": f"polar-json-n{n}", "role": "large" if n == POLAR_LARGE_N else "other",
         "kind": "polar-api", "n": n, "check": {"type": "polar", "n": n, "fmt": "json"}}
        for n in POLAR_API_SIZES
    ]
    for n, reps in POLAR_SMALL_REPEATS.items():
        for r in range(reps):
            ops.append({
                "id": f"polar-cli-n{n}-{r}", "role": "small", "kind": "cli",
                "argv": [["polar-w", "--n", str(n), "--format", "json"]],
                "check": {"type": "polar", "n": n, "fmt": "json"},
            })
    return ops


def _path_wide(rng: random.Random, work_dir: str) -> list[dict]:
    ops = []
    for n in PATH_WIDE_SIZES:
        for port in (0, n // 3):
            ops.append({
                "id": f"path-json-n{n}-p{port}",
                "role": "large" if n == PATH_LARGE_N else "other",
                "kind": "path-api", "n": n, "port": port,
                "check": {"type": "path", "n": n, "port": port, "fmt": "json"},
            })
            ops.append({
                "id": f"path-csv-n{n}-p{port}", "role": "other", "kind": "cli",
                "argv": [["path-w", "--n", str(n), "--input-port", str(port),
                          "--format", "csv"]],
                "check": {"type": "path", "n": n, "port": port, "fmt": "csv"},
            })
        target = f"target-n{n}.json"
        state = f"port0-n{n}.json"
        _dump(os.path.join(work_dir, target), random_target(rng, n))
        _dump(os.path.join(work_dir, state), fock_json(n, {0: 1}, {}))
        ops.append({
            "id": f"designed-json-n{n}", "role": "other", "kind": "designed-api",
            "target": target, "check": {"type": "designed", "target": target, "fmt": "json"},
        })
        ops.append({
            "id": f"designed-csv-n{n}", "role": "other", "kind": "cli",
            "argv": [["design", "--target", target, "--out", f"out/designed-n{n}.json"],
                     ["evolve", "--matrix", f"out/designed-n{n}.json", "--input", state,
                      "--format", "csv"]],
            "check": {"type": "designed", "target": target, "fmt": "csv"},
        })
    for n in PATH_SMALL_SIZES:
        for fmt in PATH_SMALL_FORMATS:
            port = rng.randrange(n)
            ops.append({
                "id": f"path-cli-n{n}-{fmt}", "role": "small", "kind": "cli",
                "argv": [["path-w", "--n", str(n), "--input-port", str(port),
                          "--format", fmt]],
                "check": {"type": "path", "n": n, "port": port, "fmt": fmt},
            })
    return ops


def _evolve_files(rng: random.Random, work_dir: str) -> list[dict]:
    ops = []
    for name, (n, coupler, kh, kv) in EVOLVE_CASES.items():
        matrix = f"{name}-matrix.json"
        if coupler == "dft":
            _cli(["multiport", "--n", str(n), "--out", os.path.join(work_dir, matrix)])
        else:
            target = f"{name}-target.json"
            _dump(os.path.join(work_dir, target), random_target(rng, n))
            _cli(["design", "--target", os.path.join(work_dir, target),
                  "--out", os.path.join(work_dir, matrix)])
        if name == "n5-bunched8":
            ports = rng.sample(range(n), len(BUNCHED8_COUNTS))
            h = dict(sorted(zip(ports, BUNCHED8_COUNTS)))
        else:
            h = bunched_placement(rng, n, kh)
        v = bunched_placement(rng, n, kv)
        state = f"{name}-input.json"
        _dump(os.path.join(work_dir, state), fock_json(n, h, v))
        for fmt in EVOLVE_FORMATS:
            ops.append({
                "id": f"evolve-{name}-{fmt}",
                "role": "large" if (name, fmt) == EVOLVE_LARGE else "other", "kind": "cli",
                "argv": [["evolve", "--matrix", matrix, "--input", state,
                          "--postselect", "one-per-port", "--format", fmt]],
                "check": {"type": "evolve", "case": name, "matrix": matrix,
                          "input": state, "fmt": fmt},
            })
    for i, n in enumerate(FILE_OP_SIZES):
        ops.append({
            "id": f"multiport-{i}", "role": "small", "kind": "cli",
            "argv": [["multiport", "--n", str(n), "--out", f"out/multiport-{i}.json"]],
            "check": {"type": "multiport", "n": n, "out": f"out/multiport-{i}.json"},
        })
        target = f"design-target-{i}.json"
        _dump(os.path.join(work_dir, target), random_target(rng, n))
        ops.append({
            "id": f"design-{i}", "role": "small", "kind": "cli",
            "argv": [["design", "--target", target, "--out", f"out/design-{i}.json"]],
            "check": {"type": "design", "target": target, "out": f"out/design-{i}.json"},
        })
    for fmt in WARM_CLI_FORMATS:
        for r in range(WARM_CLI_REPEATS):
            ops.append({
                "id": f"polar-cli-n3-{fmt}-{r}", "role": "small", "kind": "cli",
                "argv": [["polar-w", "--n", "3", "--format", fmt]],
                "check": {"type": "polar", "n": 3, "fmt": fmt},
            })
    return ops


_BUILDERS = {
    "polar-sweep": _polar_sweep,
    "path-wide": _path_wide,
    "evolve-files": _evolve_files,
}


def write_inputs(workload: str, seed: int, work_dir: str) -> list[dict]:
    """Write the workload's input files and ``plan.json`` under ``work_dir``; return the ops.

    The larger ops run first in a fixed order, so the heap each of them
    starts from, and with it the peak memory, does not depend on the seed;
    the small ops follow in an order shuffled by the seed.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(os.path.join(work_dir, "out"), exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, work_dir)
    small = [op for op in ops if op["role"] == "small"]
    rng.shuffle(small)
    ops = [op for op in ops if op["role"] != "small"] + small
    _dump(os.path.join(work_dir, "plan.json"), ops)
    return ops
