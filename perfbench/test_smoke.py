"""Smoke test of the benchmark itself, on a 16x32 grid and a few steps.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from spans import MODULES, check_nesting, layer_metrics, self_times
from workloads import WORKLOADS, config_text

END_TO_END = ("wall_s", "steps_per_s", "cpu_s", "step_ms_p50", "step_ms_p90",
              "setup_s", "peak_rss_mb", "fail_ratio")
PER_LAYER = (
    [f"{mod}.share" for mod in MODULES]
    + ["cli.output_bytes", "harness.run_family.s", "harness.write_family_report.ms",
       "solver.step.ms", "solver.step.self_ms", "solver.face_fluxes.ms",
       "solver.corner_stream.ms", "solver.cfl_timestep.ms", "solver.biot_savart.ms",
       "solver.boundary_tangency_residual.ms", "solver.advection_field.calls_per_step",
       "solver.mollify_initial.ms",
       "elliptic.solve_modes.ms", "elliptic.solve_modes.calls_per_step",
       "elliptic.apply_operator.ms", "elliptic.apply_operator.calls_per_step",
       "elliptic.solve_dirichlet.ms", "elliptic.solve_helmholtz.ms",
       "elliptic.solve_dirichlet.matvecs", "elliptic.solve_helmholtz.matvecs",
       "elliptic.krylov.fallback_ratio", "elliptic.solve_neumann.calls",
       "homogenize.homogenization.ms",
       "homogenize.correction_stream_coefficient.calls_per_step",
       "diagnostics.record.ms", "diagnostics.WeakFormAccumulator.add.ms",
       "diagnostics.DiagnosticsWriter.write.ms",
       "motion.metric_at.calls_per_step", "motion.material_velocity.calls_per_step",
       "motion.map_backward.calls_per_step",
       "grid.gradient.calls_per_step", "grid.theta_derivative.calls_per_step",
       "grid.integrate.ms", "grid.write_snapshot.ms"]
)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _assert_emitted(metrics, names, spec_key, min_samples):
    for name in names:
        value, unit, samples = metrics[name]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        assert unit and samples >= min_samples, name
    for m in SPEC[spec_key]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(workload):
    summary, metrics, problems = run.benchmark(workload, 0, 1, 0, tiny=True,
                                               report=lambda line: None)
    assert problems == [] and summary["failed"] == 0
    _assert_emitted(metrics, END_TO_END, "end_to_end", 1)
    assert metrics["fail_ratio"][0] == 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_per_layer_metrics_and_consistent_spans(workload):
    summary, metrics, problems = run.benchmark(workload, 0, 1, 1, tiny=True,
                                               report=lambda line: None)
    assert problems == [] and summary["failed"] == 0
    # a layer the workload never calls has no samples
    _assert_emitted(metrics, PER_LAYER, "per_layer", 0)
    # only counts may read 0 in the result line; a listed time is measured
    for m in SPEC["per_layer"]:
        if m["name"].endswith((".share", ".ms", ".self_ms", ".s")):
            assert metrics[m["name"]][0] > 0, m["name"]

    with open(os.path.join(run.OUT_ROOT, workload, "child01", "spans.json")) as fh:
        dump = json.load(fh)
    spans = dump["spans"]
    assert spans and check_nesting(spans) == []
    assert min(self_times(spans)) >= -1e-9
    shares = sum(metrics[f"{mod}.share"][0] for mod in MODULES)
    assert shares == pytest.approx(1.0, abs=0.01)
    assert metrics["solver.step.count"][0] >= 1


def test_layer_report_on_a_known_span_tree():
    # one step holding an anisotropic Poisson solve: the affine apply_operator
    # call, then the preconditioner and two matvecs
    spans = [
        ["solver.step", 0.0, 10.0, -1],
        ["elliptic.solve_dirichlet", 1.0, 9.0, 0],
        ["elliptic.apply_operator", 1.0, 2.0, 1],
        ["elliptic.solve_modes", 2.0, 3.0, 1],
        ["elliptic.apply_operator", 3.0, 4.0, 1],
        ["grid.theta_derivative", 3.0, 3.5, 4],
        ["elliptic.apply_operator", 5.0, 6.0, 1],
    ]
    assert check_nesting(spans) == []
    assert check_nesting([["a", 0.0, 1.0, -1], ["b", 0.5, 2.0, 0]])
    assert self_times(spans) == [2.0, 4.0, 1.0, 1.0, 0.5, 0.5, 1.0]
    m = layer_metrics(spans, {"bicgstab": 1, "gmres": 1}, wall_s=10.0)
    assert m["elliptic.solve_dirichlet.matvecs"][0] == 2
    assert m["elliptic.apply_operator.calls_per_step"][0] == 3
    assert m["elliptic.krylov.fallback_ratio"][0] == 1.0
    assert m["solver.share"][0] == 0.2 and m["grid.share"][0] == 0.05
    assert sum(m[f"{mod}.share"][0] for mod in MODULES) == pytest.approx(1.0)
    assert m["solver.step.self_ms"][0] == pytest.approx(2000.0)


def test_gate_rejects_a_wrong_answer(tmp_path):
    with open(checks.REFERENCE) as fh:
        ref = json.load(fh)["ellipse_viscous"]

    def write(rows):
        with open(tmp_path / ref["file"], "w") as fh:
            fh.write(",".join(ref["header"]) + "\n")
            for row in rows:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")

    write([[0.0] * len(ref["header"])] + ref["rows"])
    assert checks.check_run("ellipse_viscous", 0, str(tmp_path), full_size=True) == []
    wrong = list(ref["rows"][-1])
    wrong[ref["header"].index("l2")] *= 1.0 + 1e-4
    write([wrong])
    assert checks.check_run("ellipse_viscous", 0, str(tmp_path), full_size=True)


def _keys(text):
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return {k.strip(): v.strip() for k, v in (line.split("=", 1) for line in lines)}


def test_default_seed_is_the_packaged_config_up_to_length():
    for name, w in WORKLOADS.items():
        with open(os.path.join(run.SRC, "mdflow", "configs", f"{w.scenario}.cfg")) as fh:
            packaged = _keys(fh.read())
        text = config_text(name, 0, "out")
        generated = _keys(text)
        for key in ("physics.T", "output.directory"):
            generated.pop(key)
        packaged.pop("physics.T")
        assert generated == packaged, name
        assert config_text(name, 3, "out") == config_text(name, 3, "out")
        assert config_text(name, 3, "out") != text


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disk_viscous", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
