"""Start-up cost: numpy and the HTTP client load on first use, not on import.

Each probe runs in a fresh interpreter, because this test process may
already hold either module.
"""

from __future__ import annotations

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

# Imports restory, then runs each (name, argv) step of sys.argv[1] through
# `dispatch` and records its exit code and which of HEAVY are loaded.
_DISPATCH_PROBE = """
import contextlib, io, json, sys
def loaded():
    return [m for m in %r if m in sys.modules]
import restory, restory.cli
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = restory.cli.dispatch(argv)
    seen[name] = [code, loaded()]
print(json.dumps(seen))
""" % (HEAVY,)

_HTTP_PROBE = """
import socket, sys
from restory.gateway import GenerationConfig, HttpProvider, TransientProviderError
before = "urllib.request" in sys.modules
with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
try:
    HttpProvider(f"http://127.0.0.1:{port}/v1", timeout=5).generate("m", "p", GenerationConfig())
except TransientProviderError:
    print("transient", before, "urllib.request" in sys.modules, "requests" in sys.modules)
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


def _dispatch_probe(steps: list[tuple[str, list[str]]]) -> dict:
    return json.loads(_python(_DISPATCH_PROBE, json.dumps(steps)))


def test_commands_without_embeddings_load_neither(dataset_35, tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.cpp").write_text(make_cpp_source(3), encoding="utf-8")
    assert dispatch(["generate", "--manifest", str(write_manifest(tmp_path, dataset_35))]) == 0
    results = str(tmp_path / "run" / "results.jsonl")
    labels = tmp_path / "labels.jsonl"
    labels.write_text('{"id": 1, "a": "x", "b": "x"}\n{"id": 2, "a": "y", "b": "x"}\n',
                      encoding="utf-8")

    seen = _dispatch_probe([
        ("profile", ["profile", str(tmp_path / "src")]),
        ("sample", ["sample", "--in", str(dataset_35), "--per-stratum", "1", "--seed", "1"]),
        ("evaluate", ["evaluate", "--results", results, "--scheme", "per-stratum"]),
        ("report", ["report", "--in", results, "--out", str(tmp_path / "report.csv")]),
        ("kappa", ["kappa", "--labels", str(labels)]),
    ])
    assert seen == {
        "import": [],
        **{name: [0, []] for name in ("profile", "sample", "evaluate", "report", "kappa")},
    }


def test_echo_generate_loads_numpy_but_not_the_http_client(dataset_35, tmp_path):
    manifest = write_manifest(tmp_path, dataset_35)
    seen = _dispatch_probe([("generate", ["generate", "--manifest", str(manifest)])])
    assert seen == {"import": [], "generate": [0, ["numpy"]]}


def test_http_provider_loads_urllib_on_first_call_and_never_requests():
    assert _python(_HTTP_PROBE).split() == ["transient", "False", "True", "False"]
