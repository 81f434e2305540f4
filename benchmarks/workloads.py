"""The benchmark's workloads: set-up, one timed iteration, output checks.

Every workload drives `restory.cli.dispatch` in-process on the inputs from
`corpus_gen`, with model replies served by `provider_stub` through the
`provider = http` path. Each iteration checks its own outputs and raises
`CheckFailed` on the first mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from restory import cli
from restory.corpus import STRATA
from restory.prompts import PROMPT_VARIANTS

from corpus_gen import Inputs
from provider_stub import Stub

MODEL = "llama-3.1-8b"
COLD_PROMPT = "few-scot"
VARIANTS = tuple(sorted(PROMPT_VARIANTS))

_SUMMARY_RE = re.compile(
    r"^(?P<prompt>\S+): (?P<records>\d+) records, (?P<failures>\d+) failures, "
    r"(?P<calls>\d+) provider calls, (?P<usd>[0-9.]+) USD$",
    re.MULTILINE,
)


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one iteration did: seconds inside `dispatch`, work attempted and
    failed, records generated and scored, and USD spent."""

    wall_s: float
    attempted: int
    failed: int
    records: int = 0
    spend_usd: float = 0.0


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI invocation in-process: exit code, stdout, stderr, seconds.
    An exception escaping `dispatch` counts as exit code -1, with its
    traceback appended to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.dispatch(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def check_results(data: bytes, dataset_ids: list[str], where: str) -> list[dict]:
    """A results file holds one scored record per dataset entry, in order,
    and no failure records."""
    lines = data.decode("utf-8").splitlines()
    check(len(lines) == len(dataset_ids),
          f"{where}: {len(lines)} result lines for {len(dataset_ids)} records")
    records = []
    for lineno, (line, rec_id) in enumerate(zip(lines, dataset_ids), start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{where}:{lineno}: not JSON: {exc}") from None
        check(isinstance(obj, dict) and "failure" not in obj,
              f"{where}:{lineno}: failure record {line[:120]!r}")
        check(obj.get("snippet_id") == rec_id,
              f"{where}:{lineno}: snippet {obj.get('snippet_id')!r}, expected {rec_id!r}")
        check(isinstance(obj.get("scores"), dict) and obj.get("band") in
              ("faithful", "adequate", "divergent"), f"{where}:{lineno}: malformed record")
        records.append(obj)
    return records


def summaries(stderr: str) -> list[dict]:
    """The per-run summary lines `restory generate` prints."""
    return [
        {"prompt": m["prompt"], "records": int(m["records"]), "failures": int(m["failures"]),
         "calls": int(m["calls"]), "usd": float(m["usd"])}
        for m in _SUMMARY_RE.finditer(stderr)
    ]


def ledger_rows(path: Path, offset: int) -> list[dict]:
    """Ledger rows appended after byte `offset` (0: the whole ledger)."""
    data = path.read_bytes()
    header, _, rest = data.decode("utf-8").partition("\n")
    body = data[offset:].decode("utf-8") if offset else rest
    return list(csv.DictReader(io.StringIO(body), fieldnames=header.strip().split(",")))


def check_spend(rows: list[dict], runs: list[dict], expected_usd: float, where: str) -> None:
    """The ledger rows add up to the spend the CLI reported for `runs`
    (each printed to six decimals) and to `expected_usd`."""
    total = sum(float(r["cost_usd"]) for r in rows)
    reported = sum(r["usd"] for r in runs)
    check(abs(total - reported) <= 5e-7 * len(runs) + 1e-12,
          f"{where}: ledger sums to {total!r} USD, CLI reported {reported!r}")
    check(abs(total - expected_usd) <= 1e-9 * max(1.0, total),
          f"{where}: ledger sums to {total!r} USD, expected {expected_usd!r}")


def result_shares(records: list[dict]) -> dict[str, float]:
    n = len(records)
    shares = {band: sum(r["band"] == band for r in records) / n
              for band in ("faithful", "adequate", "divergent")}
    shares["parse_fallback"] = sum(bool(r["parse_fallback"]) for r in records) / n
    shares["multi_story"] = sum(bool(r["multi_story"]) for r in records) / n
    return shares


def probe_setup(src: Path, manifest: Path) -> float:
    """Seconds a fresh interpreter takes to import restory.cli, parse the
    manifest and load its dataset, timed inside the child."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from restory import cli, corpus\n"
        f"manifest = cli.parse_manifest({str(manifest)!r})\n"
        "corpus.load_dataset(manifest.dataset)\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    check(done.returncode == 0, f"setup probe failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.strip())


class Workload:
    name = ""
    stub_delay_ms = 0.0

    def __init__(self, work: Path, inputs: Inputs, stub: Stub, seed: int):
        self.work = work
        self.inputs = inputs
        self.stub = stub
        self.seed = seed
        self.dataset_ids = [
            json.loads(line)["id"]
            for line in inputs.dataset.read_text(encoding="utf-8").splitlines()
        ]
        self.reference: str | None = None  # digest of the first iteration's outputs
        self.shares: dict[str, float] = {}

    def manifest(self, path: Path, output_dir: Path, cache_dir: Path, concurrency: int) -> Path:
        """A `restory generate` manifest for `COLD_PROMPT` against the stub."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            f"dataset = {self.inputs.dataset}\n"
            f"model = {MODEL}\n"
            f"prompt = {COLD_PROMPT}\n"
            f"output_dir = {output_dir}\n"
            f"cache_dir = {cache_dir}\n"
            "provider = http\n"
            f"endpoint = {self.stub.url}/v1/complete\n"
            f"seed = {self.seed}\n"
            "embedder = synthetic:64\n"
            f"concurrency = {concurrency}\n",
            encoding="utf-8",
        )
        return path

    def probe_manifest(self) -> Path:
        return self.manifest(self.work / "probe.manifest", self.work / "probe-out",
                             self.work / "probe-cache", 1)

    def setup(self) -> None:
        """Untimed preparation shared by every iteration."""

    def iteration(self, k: int) -> Outcome:
        raise NotImplementedError

    def same_as_first(self, value: str, what: str) -> None:
        if self.reference is None:
            self.reference = value
        check(value == self.reference,
              f"{what}: digest {value} differs from the first iteration's {self.reference}")

    def generate(self, manifest: Path, where: str, grid: bool) -> tuple[list[dict], dict, float]:
        """`restory generate` on `manifest`: checks that it exits 0 and that each
        run scored every record without failures. Returns the runs' summaries,
        the stub's stats (`requests` served during the command, `peak_inflight`
        since the stub started) and the seconds inside `dispatch`."""
        argv = ["generate", "--manifest", str(manifest)] + (["--grid"] if grid else [])
        before = self.stub.stats()["requests"]
        code, _, err, seconds = run_cli(argv)
        stats = self.stub.stats()
        stats["requests"] -= before
        check(code == 0, f"{where}: exit code {code}: {err[-400:]}")
        runs = summaries(err)
        prompts = list(VARIANTS) if grid else [COLD_PROMPT]
        n = len(self.dataset_ids)
        check([r["prompt"] for r in runs] == prompts
              and all(r["records"] == n and r["failures"] == 0 for r in runs),
              f"{where}: summaries {runs}")
        return runs, stats, seconds

    def _cold_grid(self, output_dir: Path, cache_dir: Path) -> list[bytes]:
        """A cold `generate --grid` at concurrency 2; returns each variant's
        results, in `VARIANTS` order, after checking them."""
        manifest = self.manifest(self.work / "grid.manifest", output_dir, cache_dir, 2)
        runs, stats, _ = self.generate(manifest, "cold grid", grid=True)
        n = len(self.dataset_ids)
        check(sum(r["calls"] for r in runs) == stats["requests"] == len(VARIANTS) * n,
              f"cold grid: {stats['requests']} stub requests, CLI counted {runs}")
        results, spent = [], 0.0
        for v in VARIANTS:
            data = (output_dir / v / "results.jsonl").read_bytes()
            records = check_results(data, self.dataset_ids, f"cold grid {v}")
            self.shares = self.shares or result_shares(records)
            spent += sum(r["cost_usd"] for r in records)
            results.append(data)
        rows = ledger_rows(cache_dir / "ledger.csv", 0)
        check(len(rows) == len(VARIANTS) * n, f"cold grid: {len(rows)} ledger rows")
        check_spend(rows, runs, spent, "cold grid")
        return results


class ColdHttp(Workload):
    name = "cold-http"
    stub_delay_ms = 10.0
    concurrency = 2

    def iteration(self, k: int) -> Outcome:
        d = self.work / f"iter-{k}"
        manifest = self.manifest(d / "run.manifest", d / "out", d / "cache", self.concurrency)
        runs, stats, seconds = self.generate(manifest, "cold-http", grid=False)
        n = len(self.dataset_ids)
        check(runs[0]["calls"] == stats["requests"] == n,
              f"cold-http: {stats['requests']} stub requests, {runs[0]['calls']} provider "
              f"calls, {n} records")
        check(stats["peak_inflight"] <= self.concurrency,
              f"cold-http: {stats['peak_inflight']} requests in flight at once")
        data = (d / "out" / "results.jsonl").read_bytes()
        records = check_results(data, self.dataset_ids, "cold-http results")
        check_spend(ledger_rows(d / "cache" / "ledger.csv", 0), runs,
                    sum(r["cost_usd"] for r in records), "cold-http")
        self.shares = self.shares or result_shares(records)
        self.same_as_first(digest(data), "cold-http results")
        shutil.rmtree(d)
        return Outcome(seconds, attempted=n, failed=runs[0]["failures"], records=n,
                       spend_usd=runs[0]["usd"])


class WarmGrid(Workload):
    name = "warm-grid"

    def setup(self) -> None:
        self.cache = self.work / "cache"
        self.reference = digest(*self._cold_grid(self.work / "grid-ref", self.cache))

    def iteration(self, k: int) -> Outcome:
        d = self.work / f"iter-{k}"
        manifest = self.manifest(d / "run.manifest", d, self.cache, 1)
        ledger = self.cache / "ledger.csv"
        offset = ledger.stat().st_size
        runs, stats, seconds = self.generate(manifest, "warm-grid", grid=True)
        n = len(self.dataset_ids)
        check(stats["requests"] == 0 and all(r["calls"] == 0 for r in runs),
              f"warm-grid: {stats['requests']} stub requests on a warm cache, CLI counted {runs}")
        rows = ledger_rows(ledger, offset)
        check(len(rows) == len(VARIANTS) * n, f"warm-grid: {len(rows)} ledger rows appended")
        check_spend(rows, runs, 0.0, "warm-grid")
        results = []
        for v in VARIANTS:
            data = (d / v / "results.jsonl").read_bytes()
            check_results(data, self.dataset_ids, f"warm-grid {v}")
            results.append(data)
        # The warm rerun reproduces the cold pass that warmed the cache, byte for byte.
        self.same_as_first(digest(*results), "warm-grid results against the cold pass")
        shutil.rmtree(d)
        return Outcome(seconds, attempted=len(VARIANTS) * n, failed=0,
                       records=len(VARIANTS) * n)


class CorpusReport(Workload):
    name = "corpus-report"

    def setup(self) -> None:
        grid = self.work / "grid-ref"
        self._cold_grid(grid, self.work / "cache")
        self.results = [grid / v / "results.jsonl" for v in VARIANTS]
        self.per_stratum = max(1, len(self.dataset_ids) // len(STRATA) // 2)

    def iteration(self, k: int) -> Outcome:
        d = self.work / f"iter-{k}"
        d.mkdir(parents=True)
        inputs = [arg for path in self.results for arg in ("--in", str(path))]
        commands = [
            ["profile", str(self.inputs.cpp_dir), "--glob", "**/*.cpp",
             "--out", str(d / "profile.csv")],
            ["sample", "--in", str(self.inputs.dataset), "--per-stratum",
             str(self.per_stratum), "--seed", str(self.seed), "--out", str(d / "sample.jsonl")],
            *(["evaluate", "--results", str(path), "--scheme", "per-stratum",
               "--out", str(d / f"evaluate-{v}.txt")] for v, path in zip(VARIANTS, self.results)),
            ["report", *inputs, "--format", "csv", "--scheme", "coarse3",
             "--out", str(d / "report.csv")],
            ["report", *inputs, "--format", "json", "--scheme", "per-stratum",
             "--out", str(d / "report.json")],
            ["calibrate", "--out", str(d / "calibrate.csv")],
        ]
        seconds, failed = 0.0, 0
        for argv in commands:
            code, _, err, took = run_cli(argv)
            seconds += took
            failed += code != 0
            check(code == 0, f"corpus-report: {argv[0]} exit code {code}: {err[-400:]}")
        parts = [self._check_profile(d / "profile.csv"), self._check_sample(d / "sample.jsonl")]
        n = len(self.dataset_ids)
        for v in VARIANTS:
            text = (d / f"evaluate-{v}.txt").read_text(encoding="utf-8")
            counts = [int(line.split()[1]) for line in text.splitlines()[1:]]
            check(sum(counts) == n, f"corpus-report: evaluate {v} rows add up to {sum(counts)}")
            parts.append(text.encode("utf-8"))
        csv_rows = list(csv.DictReader(io.StringIO((d / "report.csv").read_text("utf-8"))))
        json_rows = json.loads((d / "report.json").read_text("utf-8"))["rows"]
        for what, rows, bands in (("csv", csv_rows, 3), ("json", json_rows, len(STRATA))):
            total = sum(int(r["n"]) for r in rows)
            check(total == len(VARIANTS) * n and len(rows) == len(VARIANTS) * bands,
                  f"corpus-report: {what} report has {len(rows)} rows adding up to {total}")
        calibration = (d / "calibrate.csv").read_bytes()
        check(len(calibration.splitlines()) == 6, "corpus-report: calibrate table size")
        parts += [(d / name).read_bytes() for name in ("report.csv", "report.json")]
        parts.append(calibration)
        self.same_as_first(digest(*parts), "corpus-report outputs")
        shutil.rmtree(d)
        return Outcome(seconds, attempted=len(commands), failed=failed)

    def _check_profile(self, path: Path) -> bytes:
        """Every NLOC `profile` reports equals the generator's intended NLOC.
        Returns the rows with paths relative to the tree, for the digest."""
        rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
        expected = self.inputs.nloc_by_path
        check(len(rows) == len(expected), f"profile: {len(rows)} rows for {len(expected)} files")
        out = []
        for row in rows:
            rel = Path(row["path"]).relative_to(self.inputs.cpp_dir).as_posix()
            nloc = expected.get(rel)
            check(nloc is not None and int(row["nloc"]) == nloc
                  and int(row["stratum"]) == (nloc - 1) // 10,
                  f"profile: {rel} measured {row['nloc']}/{row['stratum']}, intended {nloc}")
            out.append(f"{rel},{row['nloc']},{row['stratum']}")
        return "\n".join(out).encode("utf-8")

    def _check_sample(self, path: Path) -> bytes:
        data = path.read_bytes()
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        known = set(self.dataset_ids)
        per = {}
        for row in rows:
            check(row["id"] in known, f"sample: unknown record {row['id']!r}")
            per[row["stratum"]] = per.get(row["stratum"], 0) + 1
        check(sorted(per) == list(range(len(STRATA)))
              and set(per.values()) == {self.per_stratum},
              f"sample: per-stratum counts {per}")
        return data


WORKLOADS = {w.name: w for w in (ColdHttp, WarmGrid, CorpusReport)}
