"""Smoke test of the benchmark itself, at 35 records (one per stratum).

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus_gen  # noqa: E402
import requests  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from provider_stub import Stub  # noqa: E402
from restory.corpus import load_dataset  # noqa: E402
from restory.gateway import GenerationConfig, HttpProvider  # noqa: E402
from restory.prompts import default_prompt_config, load_exemplars, render_prompt  # noqa: E402

SEED = 5


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_gives_the_same_inputs_for_the_same_seed(tmp_path):
    a = corpus_gen.generate(tmp_path / "a", SEED, 1)
    b = corpus_gen.generate(tmp_path / "b", SEED, 1)
    c = corpus_gen.generate(tmp_path / "c", SEED + 1, 1)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    records = load_dataset(a.dataset)
    assert sorted({r.snippet.stratum_index for r in records}) == list(range(35))
    assert sum(a.reply_kinds.values()) == a.records == 35


def test_stub_answers_a_round_trip_and_stops(tmp_path):
    inputs = corpus_gen.generate(tmp_path, SEED, 1)
    record = load_dataset(inputs.dataset)[3]
    prompt = render_prompt(default_prompt_config("few-scot"), record.snippet,
                           load_exemplars()[:3])
    replies = json.loads(inputs.replies.read_text(encoding="utf-8"))
    with Stub(inputs.replies, 1.0) as stub:
        reply = HttpProvider(stub.url + "/v1/complete").generate(
            "llama-3.1-8b", prompt.text, GenerationConfig())
        assert reply.text == replies[record.snippet.source_text.rstrip()]
        assert stub.stats() == {"requests": 1, "peak_inflight": 1}
    with pytest.raises(requests.ConnectionError):
        requests.get(stub.url + "/stats", timeout=5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_iterations_pass_their_checks_traced_and_untraced(tmp_path, name):
    inputs = corpus_gen.generate(tmp_path / "in", SEED, 1)
    kind = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(inputs.id_by_reply, inputs.id_by_reference)
    with Stub(inputs.replies, 0.0) as stub:
        workload = kind(tmp_path / "work", inputs, stub, SEED)
        workload.setup()
        plain = workload.iteration(0)
        with tracer.iteration() as it:
            traced = workload.iteration(1)
    tracing.check_iteration(it)
    assert plain.failed == traced.failed == 0
    metrics = tracing.layer_metrics([it], [traced.wall_s], [plain.wall_s])
    assert list(metrics) == [m["name"] for m in tracing.catalog()]


def test_a_corrupted_results_line_fails_the_checks(tmp_path):
    inputs = corpus_gen.generate(tmp_path / "in", SEED, 1)
    with Stub(inputs.replies, 0.0) as stub:
        workload = workloads.CorpusReport(tmp_path / "work", inputs, stub, SEED)
        workload.setup()
        workload.iteration(0)
        path = workload.results[2]
        good = path.read_bytes()
        lines = good.decode("utf-8").splitlines(keepends=True)
        lines[7] = lines[7][:40] + "\n"
        bad = "".join(lines).encode("utf-8")
        with pytest.raises(workloads.CheckFailed):
            workloads.check_results(bad, workload.dataset_ids, "corrupted")
        path.write_bytes(bad)
        with pytest.raises(workloads.CheckFailed):
            workload.iteration(1)
    workloads.check_results(good, workload.dataset_ids, "intact")


def test_benchmark_json_names_every_metric_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == tracing.catalog()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cold-http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
