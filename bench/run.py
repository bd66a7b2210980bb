"""Benchmark of wstategen: three closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload polar-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25       # every workload, one table

One process runs the workload's op list back to back, pass after pass,
with no extra threads (BLAS is pinned to one thread), until ``--seconds``
would be exceeded. Every op's output is checked (``checks.py``) outside
the timed region. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (``tracing.py``). End-to-end
timings are scaled to a reference machine speed measured during the run
(``speed.py``); the timings as taken are printed and recorded beside
them, and per-layer timings are as taken. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run record with the machine and version
info, the report hashes and the spans of the last traced pass is written
under ``.bench_out/``. The program is imported from ``src/`` of the
checkout; without it the run fails before measuring anything.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: the load is one process with no extra threads, and
# numpy's thread pool would otherwise compete for the machine's cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 9
COLD_CLI_REPEATS = 15
COLD_CLI_ARGV = ["polar-w", "--n", "3"]
COLD_CLI_EXPECT = "successProbability: 0.111111111111 (= 1/9)"
CHILD_TIMEOUT_S = 120

LAYERS = ("linalg", "fock", "evolve", "postselect", "schemes", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(), "git_commit": git_commit(),
    }


def setup_once(workload: str, seed: int, inputs: Path) -> tuple[float, float]:
    """Write the inputs into a fresh ``inputs`` from a fresh interpreter; (setup_s, import_s)."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), str(SRC), workload,
         str(seed), str(inputs)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr}")
    timing = json.loads(proc.stdout.strip().splitlines()[-1])
    return timing["setup_s"], timing["import_s"]


class Probes:
    """Set-up and cold-CLI samples, spread over the measurement window.

    The machine's speed drifts over seconds. Samples taken back to back
    would all see one moment of it; spread between the ops, their median
    sees the same mix of moments the ops do.
    """

    def __init__(self, workload: str, seed: int, work: Path, cold: bool):
        self.workload, self.seed, self.work = workload, seed, work
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.cold_ms: list[float] = []
        self.cold_failed = 0
        setups = ["setup"] * (SETUP_REPEATS - 1)
        colds = ["cold"] * (COLD_CLI_REPEATS if cold else 0)
        self.queue = [p for pair in zip_longest(colds, setups) for p in pair if p]
        self.interval = self.next_at = 0.0
        import speed

        self.speed = speed.SpeedProbe()

    def setup(self, inputs: Path) -> None:
        setup_s, import_s = setup_once(self.workload, self.seed, inputs)
        self.setup_s.append(setup_s)
        self.import_s.append(import_s)

    def cold(self) -> None:
        argv = [sys.executable, "-c", "from wstategen.cli import entry_point; entry_point()",
                *COLD_CLI_ARGV]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=self.work, timeout=CHILD_TIMEOUT_S)
        self.cold_ms.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0 or COLD_CLI_EXPECT not in proc.stdout:
            self.cold_failed += 1

    def start(self, seconds: float) -> None:
        self.interval = seconds / (len(self.queue) + 1)
        self.next_at = time.perf_counter() + self.interval

    def run_next(self) -> None:
        if self.queue.pop(0) == "cold":
            self.cold()
        else:
            self.setup(self.work / "setup-probe")

    def between_ops(self) -> None:
        self.speed.maybe_sample()
        if self.queue and time.perf_counter() >= self.next_at:
            self.run_next()
            self.next_at += self.interval

    def finish(self) -> None:
        while self.queue:
            self.run_next()


class Runner:
    """Executes plan ops against the imported package and checks their outputs."""

    def __init__(self, seed: int, inputs: Path):
        import numpy as np

        import checks
        from wstategen import cli, schemes

        self.cli, self.schemes = cli, schemes
        self.checker = checks.Checker(seed)
        self.targets = {}
        with open(inputs / "plan.json") as f:
            self.plan = json.load(f)
        for op in self.plan:
            if op["kind"] == "designed-api":
                self.targets[op["target"]] = np.array(checks.read_target(inputs / op["target"]))

    def execute(self, op: dict) -> list[tuple[int, str]]:
        # Module attributes are looked up at call time, so traced passes
        # reach the wrappers the tracer installed.
        kind = op["kind"]
        if kind == "polar-api":
            return [(0, self.schemes.run_polarization_w(op["n"]).to_json())]
        if kind == "path-api":
            return [(0, self.schemes.run_path_w(op["n"], op["port"]).to_json())]
        if kind == "designed-api":
            return [(0, self.schemes.run_designed_path(self.targets[op["target"]]).to_json())]
        outputs = []
        for argv in op["argv"]:
            buf = io.StringIO()
            rc = self.cli.main(argv, stream=buf)
            outputs.append((rc, buf.getvalue()))
        return outputs

    def run_pass(self, between, tracer=None, hashes: dict | None = None) -> dict:
        """One pass over the plan, calling ``between()`` after each op.

        Op times exclude the output checks and whatever ``between`` does.
        """
        times: dict[str, float] = {}
        failures: dict[str, list[str]] = {}
        for op in self.plan:
            between()
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    outputs = self.execute(op)
                    t1 = time.perf_counter()
                else:
                    with tracer.installed(), tracer.span("op:" + op["id"]):
                        t0 = time.perf_counter()
                        outputs = self.execute(op)
                        t1 = time.perf_counter()
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                failures[op["id"]] = [f"raised {type(exc).__name__}: {exc}"]
                continue
            times[op["id"]] = t1 - t0
            errors = self.checker.check(op["check"], outputs)
            if errors:
                failures[op["id"]] = errors
            if hashes is not None:
                hashes[op["id"]] = [hashlib.sha256(text.encode()).hexdigest()
                                    for _, text in outputs]
            # Free the reports before the next op runs, so the peak memory
            # is one op's own and does not depend on the op order.
            del outputs
        return {"times": times, "failures": failures}


def layer_metrics(tracer, large_ids: set[str]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and the self time per layer of its largest op."""
    import tracing

    spans, counts = tracer.spans, tracer.counts
    selfs, own = tracing.self_times(spans)
    m: dict[str, float] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    perm_self = selfs.get("linalg.permanent", 0.0)
    m["linalg.permanent.calls"] = counts["linalg.permanent.calls"]
    m["linalg.permanent.self_s"] = perm_self
    m["linalg.permanent.gray_steps"] = counts["linalg.permanent.gray_steps"]
    m["linalg.permanent.ns_per_step"] = ratio(perm_self * 1e9,
                                              counts["linalg.permanent.gray_steps"])
    m["linalg.permanent.max_k"] = counts["linalg.permanent.max_k"]
    for name in ("linalg.coupler", "linalg.verify_unitary", "linalg.matrix_io"):
        m[name + ".self_s"] = selfs.get(name, 0.0)
    for name in ("fock.from_counts", "fock.superposed"):
        m[name + ".calls"] = counts[name + ".calls"]
        m[name + ".self_s"] = selfs.get(name, 0.0)
    m["fock.superposed.terms_in"] = counts["fock.superposed.terms_in"]
    m["fock.superposed.kept_ratio"] = ratio(counts["fock.superposed.terms_kept"],
                                            counts["fock.superposed.terms_in"])
    m["evolve.calls"] = counts["evolve.calls"]
    m["evolve.self_s"] = selfs.get("evolve", 0.0)
    for key in ("patterns", "pairs", "terms_out"):
        m["evolve." + key] = counts["evolve." + key]
    m["evolve.useful_ratio"] = ratio(counts["evolve.terms_out"], counts["evolve.pairs"])
    m["postselect.self_s"] = selfs.get("postselect", 0.0) + selfs.get("postselect.fidelity", 0.0)
    m["postselect.kept_ratio"] = ratio(counts["postselect.terms_kept"],
                                       counts["postselect.terms_in"])
    m["postselect.fidelity.self_s"] = selfs.get("postselect.fidelity", 0.0)
    m["schemes.run.self_s"] = selfs.get("schemes.run", 0.0)
    m["schemes.serialize.self_s"] = selfs.get("schemes.serialize", 0.0)
    m["schemes.serialize.bytes"] = counts["schemes.serialize.bytes"]
    m["cli.main.calls"] = counts["cli.main.calls"]
    m["cli.main.self_s"] = selfs.get("cli.main", 0.0)
    m["cli.out_bytes"] = counts["cli.out_bytes"]

    # The largest op alone: self time per layer, the permanent's share of
    # evolve, and how far the cli layer leads the busiest other layer.
    roots = tracing.root_of(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    evolve_incl = perm_in_large = 0.0
    for (name, start, end, _), t, root in zip(spans, own, roots):
        if spans[root][0][3:] not in large_ids or name.startswith("op:"):
            continue
        layer_self[name.split(".")[0]] += t
        if name == "evolve":
            evolve_incl += end - start
        elif name == "linalg.permanent":
            perm_in_large += t
    m["large_op.permanent_share"] = ratio(perm_in_large, evolve_incl)
    m["large_op.cli_lead"] = ratio(layer_self["cli"],
                                   max(v for k, v in layer_self.items() if k != "cli"))
    return m, layer_self


def quantile(xs: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``xs``."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def measure(args, runner: Runner, tracer, probes: Probes) -> dict:
    """Run passes until ``args.seconds`` would be exceeded; return raw samples."""
    large = {op["id"] for op in runner.plan if op["role"] == "large"}
    small = {op["id"] for op in runner.plan if op["role"] == "small"}
    min_passes = 2 if args.trace else 1
    res = {"passes": 0, "attempted": 0, "failed": 0, "failures": {}, "hashes": {},
           "untraced_totals": [], "traced_totals": [], "large": [], "small": [],
           "layer_passes": [], "large_op_layers": [], "last_spans": []}
    deadline = time.perf_counter() + args.seconds
    probes.start(args.seconds)
    pass_walls: list[float] = []
    while True:
        traced = bool(args.trace) and res["passes"] % 2 == 1
        if traced:
            tracer.reset()
        t0 = time.perf_counter()
        out = runner.run_pass(probes.between_ops, tracer if traced else None,
                              res["hashes"] if res["passes"] == 0 else None)
        pass_walls.append(time.perf_counter() - t0)
        res["passes"] += 1
        res["attempted"] += len(runner.plan)
        for op_id, errors in out["failures"].items():
            res["failures"].setdefault(op_id, errors)
        res["failed"] += len(out["failures"])
        total = sum(out["times"].values())
        if traced:
            res["traced_totals"].append(total)
            metrics, large_layers = layer_metrics(tracer, large)
            res["layer_passes"].append(metrics)
            res["large_op_layers"].append(large_layers)
            res["last_spans"] = tracer.spans
        else:
            res["untraced_totals"].append(total)
            res["large"] += [t for k, t in out["times"].items() if k in large]
            res["small"] += [t * 1e3 for k, t in out["times"].items() if k in small]
        # Stop when the next pass would end more than half a pass late.
        remaining = deadline - time.perf_counter()
        if res["passes"] >= min_passes and remaining < statistics.median(pass_walls) / 2:
            probes.finish()
            return res


def raw_end_to_end(res: dict, probes: Probes) -> dict[str, float]:
    """End-to-end metrics as timed on this run, before scaling to the reference speed."""
    return {
        "total_s": statistics.median(res["untraced_totals"]),
        "large_op_s": statistics.median(res["large"]),
        "small_op_p50_ms": statistics.median(res["small"]),
        "small_op_p90_ms": quantile(res["small"], 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_cold_ms": statistics.median(probes.cold_ms),
        "setup_s": statistics.median(probes.setup_s),
    }


def end_to_end(raw: dict[str, float], scale: float) -> dict[str, float]:
    """Every timing scaled to the reference speed (``speed.py``); memory as measured."""
    return {k: v if k == "peak_rss_mb" else v * scale for k, v in raw.items()}


def per_layer(res: dict, probes: Probes) -> dict[str, float]:
    # median_low picks a measured pass, so counts stay whole numbers.
    passes = res["layer_passes"]
    m = {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}
    m["cli.import_s"] = statistics.median(probes.import_s)
    m["trace.overhead_s"] = (statistics.median(res["traced_totals"])
                             - statistics.median(res["untraced_totals"]))
    return m


def run_workload(args, benchmark: dict) -> dict:
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    cwd = os.getcwd()
    try:
        probes = Probes(args.workload, args.seed, work, cold=not args.trace)
        probes.setup(inputs)
        runner = Runner(args.seed, inputs)
        os.chdir(inputs)  # plan paths are relative to the input directory
        res = measure(args, runner, tracing.Tracer(), probes)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    res["attempted"] += len(probes.cold_ms)
    res["failed"] += probes.cold_failed
    if probes.cold_failed:
        res["failures"]["cli-cold"] = [f"{probes.cold_failed} cold CLI runs failed"]
    raw = {} if args.trace else raw_end_to_end(res, probes)
    metrics = per_layer(res, probes) if args.trace else end_to_end(raw, probes.speed.scale())
    units = {d["name"]: d["unit"]
             for d in benchmark["per_layer" if args.trace else "end_to_end"]}
    record = {
        "meta": run_metadata(args), "passes": res["passes"],
        "small_op_samples": len(res["small"]), "large_op_samples": len(res["large"]),
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "metrics": metrics, "raw_metrics": raw,
        "setup_s": probes.setup_s,
        "import_s": probes.import_s, "cli_cold_ms": probes.cold_ms,
        "speed_ms": probes.speed.speed_ms(), "speed_samples_ms": probes.speed.samples_ms, "report_sha256": res["hashes"],
        "untraced_totals": res["untraced_totals"], "traced_totals": res["traced_totals"],
    }
    if args.trace:
        record["layer_passes"] = res["layer_passes"]
        record["large_op_layer_self_s"] = res["large_op_layers"]
        record["spans"] = res["last_spans"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f)
    return {"record": record, "metrics": metrics, "units": units}


def print_table(result: dict) -> None:
    """Every metric of a result line by name with its unit, then ``failed_frac``."""
    failed, attempted = result["failed"], result["attempted"]
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} share ({failed} of {attempted} ops)")


def print_result(args, out: dict) -> None:
    import speed

    rec = out["record"]
    result = {
        "correct": rec["failed"] == 0, "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {rec['passes']}  "
          f"trace {args.trace}  small-op samples {rec['small_op_samples']}  "
          f"speed probe {rec['speed_ms']:.4g} ms (reference {speed.REFERENCE_MS} ms)")
    for name, value in rec["raw_metrics"].items():
        print(f"  {name + ' (as timed)':32s} {value:>16.6g} {out['units'][name]}")
    for op_id, errors in sorted(rec["failures"].items()):
        print(f"  FAILED {op_id}: {'; '.join(errors)}", file=sys.stderr)
    print_table(result)
    print(json.dumps(result))


def run_all(args) -> int:
    """Run every workload in its own process and print one table of end-to-end metrics."""
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= result["failed"] != 0
        print(workload)
        print_table(result)
    return status


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wstategen" / "__init__.py").is_file():
        print(f"error: no wstategen sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import wstategen

    if Path(wstategen.__file__).resolve().parent != SRC / "wstategen":
        print(f"error: wstategen imported from {wstategen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args, benchmark)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
