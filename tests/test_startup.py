"""Start-up cost: each command loads only the modules it runs.

numpy loads on first use, the HTTP client when an HTTP provider is made,
and `import restory.cli` loads only the modules that parse the command line
and the manifest. Each probe
runs in a fresh interpreter, because this test process already holds them.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import restory
from restory.cli import dispatch

from conftest import make_cpp_source, write_manifest

HEAVY = ("numpy", "urllib.request")
# What `import restory.cli` loads, what the commands that read results add,
# and the standard-library modules that only `generate` needs.
CLI_MODULES = ["restory", "restory.cli", "restory.corpus", "restory.errors", "restory.jsonl",
               "restory.prompts"]
SCORING_MODULES = ["restory.metrics", "restory.runner", "restory.story"]
GENERATE_ONLY = ("concurrent.futures", "datetime", "hashlib", "logging")

# Imports restory.cli, then runs each (name, argv) step of sys.argv[1]
# through `dispatch` and records its exit code and the modules loaded since
# the probe started, in sorted order.
_DISPATCH_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
def loaded():
    return sorted(set(sys.modules) - before)
import restory.cli
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = restory.cli.dispatch(argv)
    seen[name] = [code, loaded()]
print(json.dumps(seen))
"""

# The package's public names by home module, as listed before they were
# loaded lazily.
EXPORTS = {
    "corpus": ["CodeSnippet", "DatasetRecord", "Stratum", "count_nloc", "load_dataset",
               "sample_stratified", "save_dataset", "stratum_for_nloc"],
    "gateway": ["CompletionResult", "Gateway", "GenerationConfig", "ModelSpec",
                "estimate_cost", "model_spec"],
    "metrics": ["EmbeddedText", "FidelityBand", "HashEmbedder", "ScoreTriple", "bleu",
                "classify_fidelity", "greedy_embedding_score", "rouge_l", "tokenize"],
    "prompts": ["Exemplar", "PromptConfig", "RenderedPrompt", "default_prompt_config",
                "estimate_tokens", "load_exemplars", "render_prompt"],
    "runner": ["AnnotationSet", "BandAggregate", "CalibrationPair", "GenerationRecord",
               "aggregate_by_band", "calibration_experiment", "cohen_kappa",
               "load_calibration_pairs", "run_experiment"],
    "story": ["UserStory", "canonical_text", "parse_stories", "parse_story"],
}

_HTTP_PROBE = """
import socket, sys
from restory.gateway import GenerationConfig, HttpProvider, TransientProviderError
before = "urllib.request" in sys.modules
with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
provider = HttpProvider(f"http://127.0.0.1:{port}/v1", timeout=5)
made = "urllib.request" in sys.modules
try:
    provider.generate("m", "p", GenerationConfig())
except TransientProviderError:
    print("transient", before, made, "requests" in sys.modules)
"""


def _python(script: str, *args: str) -> str:
    # No proxy variables: the HTTP probe must reach 127.0.0.1 directly.
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(Path(restory.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module", autouse=True)
def bare_interpreter_is_lean():
    script = f"import json, sys; print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    loaded = json.loads(_python(script))
    if loaded:
        pytest.skip(f"a bare interpreter already loads {', '.join(loaded)}")


def _dispatch_probe(steps: list[tuple[str, list[str]]],
                    watched=lambda module: module in HEAVY) -> dict:
    """What the probe saw, keeping only the modules that `watched` accepts."""
    seen = json.loads(_python(_DISPATCH_PROBE, json.dumps(steps)))
    keep = lambda modules: [m for m in modules if watched(m)]
    return {"import": keep(seen.pop("import")),
            **{name: [code, keep(modules)] for name, (code, modules) in seen.items()}}


def _graph(module: str) -> bool:
    """restory's modules, those only `generate` needs, and `csv`, which no
    command loads."""
    return module.split(".")[0] == "restory" or module in GENERATE_ONLY or module == "csv"


@pytest.fixture
def commands(dataset_35, tmp_path) -> dict[str, list[str]]:
    """argv for every subcommand but calibrate, on small valid inputs."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.cpp").write_text(make_cpp_source(3), encoding="utf-8")
    assert dispatch(["generate", "--manifest", str(write_manifest(tmp_path, dataset_35))]) == 0
    results = str(tmp_path / "run" / "results.jsonl")
    labels = tmp_path / "labels.jsonl"
    labels.write_text('{"id": 1, "a": "x", "b": "x"}\n{"id": 2, "a": "y", "b": "x"}\n',
                      encoding="utf-8")
    return {
        "profile": ["profile", str(tmp_path / "src")],
        "sample": ["sample", "--in", str(dataset_35), "--per-stratum", "1", "--seed", "1"],
        "evaluate": ["evaluate", "--results", results, "--scheme", "per-stratum"],
        "report": ["report", "--in", results, "--out", str(tmp_path / "report.csv")],
        "kappa": ["kappa", "--labels", str(labels)],
        "generate": ["generate", "--manifest",
                     str(write_manifest(tmp_path, dataset_35, "run2", concurrency="2"))],
    }


def test_commands_without_embeddings_load_neither(commands):
    names = ("profile", "sample", "evaluate", "report", "kappa")
    seen = _dispatch_probe([(name, commands[name]) for name in names])
    assert seen == {"import": [], **{name: [0, []] for name in names}}


def test_echo_generate_loads_numpy_but_not_the_http_client(dataset_35, tmp_path):
    manifest = write_manifest(tmp_path, dataset_35)
    seen = _dispatch_probe([("generate", ["generate", "--manifest", str(manifest)])])
    assert seen == {"import": [], "generate": [0, ["numpy"]]}


def test_cli_import_profile_and_sample_load_only_the_parsing_modules(commands):
    seen = _dispatch_probe([(name, commands[name]) for name in ("profile", "sample")], _graph)
    assert seen == {"import": CLI_MODULES, "profile": [0, CLI_MODULES],
                    "sample": [0, CLI_MODULES]}


@pytest.mark.parametrize("command", ["evaluate", "report", "kappa"])
def test_reading_commands_load_the_runner_but_not_the_gateway(commands, command):
    seen = _dispatch_probe([(command, commands[command])], _graph)
    assert seen == {"import": CLI_MODULES,
                    command: [0, sorted(CLI_MODULES + SCORING_MODULES)]}


def test_generate_loads_the_gateway_and_what_it_needs(commands, dataset_35, tmp_path):
    """A serial run (concurrency 1) loads no thread pool; a pooled one does."""
    serial = ["generate", "--manifest", str(write_manifest(tmp_path, dataset_35, "run3"))]
    seen = _dispatch_probe([("serial", serial), ("generate", commands["generate"])], _graph)
    expected = sorted([*CLI_MODULES, *SCORING_MODULES, "restory.gateway", *GENERATE_ONLY])
    assert seen == {"import": CLI_MODULES,
                    "serial": [0, [m for m in expected if m != "concurrent.futures"]],
                    "generate": [0, expected]}


def test_package_exports_resolve_to_their_home_objects():
    names = sorted(name for group in EXPORTS.values() for name in group)
    assert restory.__all__ == names
    assert set(names) <= set(dir(restory))
    for home, group in EXPORTS.items():
        module = importlib.import_module(f"restory.{home}")
        for name in group:
            assert getattr(restory, name) is getattr(module, name), name
    star: dict = {}
    exec("from restory import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    with pytest.raises(AttributeError, match="no_such_name"):
        restory.no_such_name


def test_http_provider_loads_urllib_when_made_and_never_requests():
    assert _python(_HTTP_PROBE).split() == ["transient", "False", "True", "False"]
