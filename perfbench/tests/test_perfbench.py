"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from viapkit import attacks, cli, evaluate, nn, render, train  # noqa: E402

MODULES = {"render": render, "nn": nn, "train": train, "attacks": attacks,
           "evaluate": evaluate, "cli": cli}


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_layer_metrics_attribute_spans_by_tag_and_parent():
    spans = [
        ("evaluate.confidence_sweep", 0.0, 10.0, -1, 0, None),
        ("nn.forward", 1.0, 3.0, 0, 0, [None, 7]),
        ("nn.conv2d", 1.5, 2.0, 1, 0, ["conv1", 7, 100]),
        ("train.evaluate_clean", 4.0, 6.0, 0, 0, None),
        ("nn.forward", 4.5, 5.5, 3, 0, [None, 7]),
        ("attacks.bim_batch", 6.0, 9.0, 0, 0, ["bim-t", 7]),
        ("nn.Graph.backward", 7.0, 8.0, 5, 0, [None, 7]),
    ]
    m = tracing.layer_metrics(spans)
    assert m["evaluate.score.s"] == pytest.approx(2.0)  # only the sweep's own forward
    assert m["nn.conv1.fwd.s"] == pytest.approx(0.5)
    assert m["nn.conv1.im2col_bytes"] == 100
    assert m["train.evaluate_clean.s"] == pytest.approx(2.0)
    assert m["attacks.craft.bim-t.s"] == pytest.approx(3.0)  # inclusive
    assert m["attacks.bim_batch.s"] == pytest.approx(2.0)  # self
    assert m["attacks.craft.bim-t.calls"] == 1 and m["attacks.craft.bim.calls"] == 0
    assert (m["nn.Graph.backward.calls"], m["nn.Graph.backward.rows"]) == (1, 7)
    assert set(m) == set(tracing.layer_metric_names())


def _attributes():
    snap = {(name, attr): vars(mod)[attr] for name, mod in MODULES.items() for attr in vars(mod)}
    snap[("nn.Graph", "backward")] = vars(nn.Graph)["backward"]
    return snap


@pytest.mark.parametrize("install", [tracing.install_full_trace, tracing.install_stage_timers])
def test_wrappers_restore_the_original_functions(install):
    before = _attributes()
    tracer = tracing.Tracer("test")
    install(tracer, MODULES)
    assert render.generate_dataset is not before[("render", "generate_dataset")]
    tracer.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_call_records_every_layer_and_keeps_results():
    params = train.init_params(99, 8, 8, 3, 3)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.05, 0.95, size=(5, 8, 8, 3))
    y = rng.integers(0, 3, size=5)
    want_loss, want_grad = nn.loss_and_input_grad(params, x, y)
    tracer = tracing.Tracer("test")
    tracing.install_full_trace(tracer, MODULES)
    try:
        loss, grad = nn.loss_and_input_grad(params, x, y)
    finally:
        tracer.restore()
    assert loss == want_loss and np.array_equal(grad, want_grad)
    m = tracing.layer_metrics(tracer.spans)
    assert m["nn.loss_and_input_grad.calls"] == 1 and m["nn.loss_and_input_grad.rows"] == 5
    assert m["nn.Graph.backward.calls"] == 1
    assert m["nn.conv1.bwd_input.calls"] == 1 and m["nn.conv2.bwd_input.calls"] == 1
    # forward patches of the 3-channel input, input-grad patches of 8-channel dz1
    assert m["nn.conv1.im2col_bytes"] == 5 * 8 * 8 * 9 * 8 * (3 + 8)
    assert all(t >= 0 for t in tracing.self_times(tracer.spans))


def test_workload_argv_and_config_come_from_the_seed_alone(tmp_path):
    a = workloads.prepare("render-train-wide", 13, str(tmp_path / "a"))
    b = workloads.prepare("render-train-wide", 13, str(tmp_path / "b"))
    assert [[t.replace(str(tmp_path / "a"), "") for t in c] for c in a] == \
        [[t.replace(str(tmp_path / "b"), "") for t in c] for c in b]
    assert (tmp_path / "a" / "dataset.json").read_text() == \
        (tmp_path / "b" / "dataset.json").read_text()
    assert json.loads((tmp_path / "a" / "dataset.json").read_text()) == \
        workloads.WIDE_DATASET_CONFIG
    p = str(13 % workloads.REFERENCE_SEEDS)
    assert [c[0] for c in a] == ["dataset", "train"]
    assert "--seed" not in a[0] and a[1][a[1].index("--seed") + 1] == p
    sweep = workloads.prepare("sweep-default", 4, str(tmp_path / "s"))
    assert sweep == [["sweep", "--out", str(tmp_path / "s" / "sweep"), "--seed", "4"]]


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, run.unit_of(m)) for m in run.PER_LAYER]
    assert set(run.PER_LAYER) <= set(tracing.layer_metric_names()) | {"trace.overhead_s"}


def test_checks_fail_on_outputs_but_only_note_digests():
    ref = {"images_sha256": "a" * 64, "report_sha256": "b" * 64,
           "cell_means": {"viap/5/test": 0.25, "fgsm/5/test": 0.5}}
    obs = dict(ref, gate={"train": 0.95, "test": 0.9},
               clean={"train_acc": 1.0, "test_acc": 0.92}, report_sha256="c" * 64)
    failures, notes = checks.check("sweep-default", obs, ref)
    assert failures == [] and any("DIFFERS" in n for n in notes)
    off = dict(obs, cell_means={"viap/5/test": 0.25 + 2 * checks.CELL_MEAN_TOL,
                                "fgsm/5/test": 0.5})
    assert len(checks.check("sweep-default", off, ref)[0]) == 1
    gate = dict(obs, clean={"train_acc": 1.0, "test_acc": 0.85})
    assert len(checks.check("sweep-default", gate, ref)[0]) == 1
    wide = {"images_sha256": "a" * 64, "weights_sha256": "d" * 64,
            "train_acc": 0.92, "test_acc": 0.9}
    assert checks.check("render-train-wide", dict(wide, weights_sha256="e" * 64), wide)[0] == []
    assert len(checks.check("render-train-wide", dict(wide, test_acc=0.89), wide)[0]) == 1
    assert len(checks.check("render-train-wide", dict(wide, images_sha256="f" * 64), wide)[0]) == 1


def test_normalized_wall_scales_by_the_mean_kernel_time():
    ref = speed.REFERENCE_KERNEL_S
    # kernel runs twice as slow as the reference: the machine was at half speed
    assert speed.normalized(10.0, [2 * ref, 2 * ref]) == pytest.approx(5.0)
    assert speed.normalized(10.0, [ref, 3 * ref]) == pytest.approx(5.0)
    assert speed.normalized(4.0, [ref]) == pytest.approx(4.0)


def test_sampler_samples_during_the_region_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler(interval_s=0.02)
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    n = len(sampler.samples)
    assert n >= 3 and sampler.spent >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is before and gc.isenabled()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.05)
    assert len(sampler.samples) == n


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(range(40)))[0] == 75
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-default", "--seed", "0",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
