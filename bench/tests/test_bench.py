"""Tests of the benchmark itself: tracing hygiene, seeded inputs, output checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
import wstategen
from wstategen import cli, schemes

BENCH = Path(run.__file__).resolve().parent


def _package_bindings() -> dict:
    """Every attribute of every wstategen module and traced class, by identity."""
    from wstategen.fock import FockState, SuperposedState
    from wstategen.schemes import SchemeReport

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "wstategen" or name.startswith("wstategen."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (FockState, SuperposedState, SchemeReport):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def _assert_unpatched(before: dict) -> None:
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_records_spans_and_restores_every_attribute():
    before = _package_bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("op:x"):
            schemes.run_polarization_w(3).to_json()
            cli.main(["path-w", "--n", "4", "--format", "csv"], stream=io.StringIO())
    _assert_unpatched(before)
    names = {s[0] for s in tracer.spans}
    assert {"op:x", "linalg.permanent", "evolve", "fock.from_counts", "fock.superposed",
            "postselect", "postselect.fidelity", "schemes.run", "schemes.serialize",
            "cli.main", "linalg.coupler", "linalg.verify_unitary"} <= names
    # The wrappers went into every module that bound the function by name.
    assert tracer.counts["evolve.calls"] == 2
    # polar-w n=3: 6 H patterns of 2 photons and 3 V patterns of 1; path-w n=4: 4 of 1.
    assert tracer.counts["linalg.permanent.gray_steps"] == 6 * (2 ** 2 - 1) + 3 * 1 + 4 * 1
    selfs, own = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    root = tracer.spans[0]
    assert sum(selfs.values()) == pytest.approx(root[2] - root[1])
    # Nothing stays patched, so an untraced call records nothing.
    schemes.run_path_w(3)
    assert tracer.counts["evolve.calls"] == 2


def test_tracer_restores_after_an_exception():
    before = _package_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            wstategen.run_path_w(1)
    _assert_unpatched(before)


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload, tmp_path):
    trees = []
    for i, seed in enumerate((7, 7, 8)):
        d = tmp_path / str(i)
        workloads.write_inputs(workload, seed, str(d))
        trees.append(_tree(d))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]
    # The seed changes values and order, never the amount of work.
    plans = [json.loads(t["plan.json"]) for t in (trees[0], trees[2])]
    assert sorted(op["id"] for op in plans[0]) == sorted(op["id"] for op in plans[1])


def _evolve_ops(tmp_path, monkeypatch):
    workloads.write_inputs("evolve-files", 3, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    plan = json.loads((tmp_path / "plan.json").read_text())
    return {op["id"]: op for op in plan}


def _run_cli(op) -> list:
    buf = io.StringIO()
    return [(cli.main(op["argv"][0], stream=buf), buf.getvalue())]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_checker_accepts_real_output_and_rejects_a_wrong_amplitude(fmt, tmp_path, monkeypatch):
    ops = _evolve_ops(tmp_path, monkeypatch)
    checker = checks.Checker(seed=3)
    for case in ("n4-mixed", "n5-mixed"):
        op = ops[f"evolve-{case}-{fmt}"]
        outputs = _run_cli(op)
        assert checker.check(op["check"], outputs) == []
        terms, _ = checks.parse_superposed(outputs[0][1], fmt)
        # Negate the largest sampled amplitude: the norm and the post-selected
        # probability are unchanged, so only the amplitude checks can see it.
        sample = random.Random(f"3:{case}").sample(range(len(terms)), checks.SAMPLED_AMPLITUDES)
        i = max(sample, key=lambda k: abs(terms[k][1]))
        wrong = _negate_term(outputs[0][1], fmt, i)
        assert checks.parse_superposed(wrong, fmt)[0][i][1] == pytest.approx(-terms[i][1])
        errors = checker.check(op["check"], [(0, wrong)])
        assert errors and all("amplitude of" in e or "oracle_evolve" in e for e in errors)


def _negate_term(text: str, fmt: str, i: int) -> str:
    """The report with the amplitude of output term ``i`` negated."""
    if fmt == "json":
        obj = json.loads(text)
        term = obj["output"]["terms"][i]
        term["amp"] = [-term["amp"][0], -term["amp"][1]]
        return json.dumps(obj)
    lines = text.splitlines(keepends=True)
    rows = [j for j, line in enumerate(lines) if line.lstrip().startswith("|")]
    j = rows[i]
    if fmt == "csv":
        label, re_, im, prob = lines[j].rsplit(",", 3)
        lines[j] = f"{label},{cli.fmt12(-float(re_))},{cli.fmt12(-float(im))},{prob}"
    else:
        m = checks._TABLE_TERM.match(lines[j])
        amp = -complex(float(m.group(2)), float(m.group(3)))
        lines[j] = (lines[j][:m.start(2)] + f"{cli.fmt12(amp.real)}{amp.imag:+.12g}"
                    + lines[j][m.end(3):])
    return "".join(lines)


def test_a_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    ops = _evolve_ops(tmp_path, monkeypatch)
    runner = run.Runner(seed=3, inputs=tmp_path)
    runner.plan = [ops["evolve-n4-mixed-csv"], ops["multiport-0"]]
    assert runner.run_pass(lambda: None)["failures"] == {}

    real = runner.execute

    def corrupt(op):
        # Negate the real part of the first output amplitude.
        outputs = real(op)
        lines = outputs[0][1].splitlines(keepends=True)
        state, re_, rest = lines[1].split(",", 2)
        lines[1] = f"{state},{-float(re_)!r},{rest}"
        return [(outputs[0][0], "".join(lines))] + outputs[1:]

    monkeypatch.setattr(runner, "execute", corrupt)
    failures = runner.run_pass(lambda: None)["failures"]
    assert "evolve-n4-mixed-csv" in failures


def test_exact_counts_repeat_between_traced_passes(tmp_path, monkeypatch):
    workloads.write_inputs("path-wide", 5, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(seed=5, inputs=tmp_path)
    runner.plan = [op for op in runner.plan if op["role"] == "small"][:6] + [
        {"id": "polar-json-n5", "role": "large", "kind": "polar-api", "n": 5,
         "check": {"type": "polar", "n": 5, "fmt": "json"}}]
    exact = ("linalg.permanent.gray_steps", "evolve.patterns", "evolve.pairs",
             "evolve.terms_out", "schemes.serialize.bytes", "cli.out_bytes")
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        assert runner.run_pass(lambda: None, tracer)["failures"] == {}
        m, _ = run.layer_metrics(tracer, {"polar-json-n5"})
        seen.append({k: m[k] for k in exact})
        assert m["large_op.permanent_share"] > 0
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "path-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_end_to_end_scales_timings_but_not_memory():
    raw = {"total_s": 2.0, "large_op_s": 1.0, "small_op_p50_ms": 3.0, "small_op_p90_ms": 4.0,
           "peak_rss_mb": 100.0, "cli_cold_ms": 200.0, "setup_s": 0.1}
    scaled = run.end_to_end(raw, 0.5)
    assert scaled["peak_rss_mb"] == 100.0
    assert all(scaled[k] == v * 0.5 for k, v in raw.items() if k != "peak_rss_mb")


def test_speed_probe_scale_is_reference_over_measured():
    import speed

    probe = speed.SpeedProbe()
    probe.maybe_sample()
    probe.maybe_sample()  # within EVERY_S of the first: no second sample
    assert all(len(v) == 1 for v in probe.samples_ms.values())
    assert probe.scale() == pytest.approx(speed.REFERENCE_MS / probe.speed_ms())
