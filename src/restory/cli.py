"""Command-line entry point.

Subcommands: profile, sample, generate, evaluate, calibrate, kappa,
report. Exit codes: 0 success, 1 usage error, 2 data error, 3
provider/budget error. Generation runs are driven by a flat key=value
manifest file; credentials come from environment variables only. Each
subcommand imports the modules it runs, to keep a fresh process short.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from . import corpus
from .errors import BudgetExceededError, DataError, GatewayError
from .jsonl import csv_text, read_unique_jsonl
from .prompts import PROMPT_VARIANTS, default_prompt_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def positive_int(text: str) -> int:
    """An argparse type: a whole number >= 1 (else a usage error)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="restory", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("profile", help="measure NLOC for source files and emit CSV")
    p.add_argument("directory")
    p.add_argument("--glob", default="**/*.cpp")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="stratified sampling of a dataset")
    p.add_argument("--in", dest="dataset", required=True)
    p.add_argument("--per-stratum", type=positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("generate", help="run generation + scoring per a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--grid", action="store_true",
                   help="expand the manifest over all six prompt variants")

    p = sub.add_parser("evaluate", help="aggregate a results file by NLOC band")
    p.add_argument("--results", required=True)
    p.add_argument("--scheme", choices=corpus.SCHEMES, default="coarse3")
    p.add_argument("--metric", default=corpus.GREEDY_METRIC)
    p.add_argument("--out", default=None)

    p = sub.add_parser("calibrate", help="metric means over curated text-pair categories")
    p.add_argument("--pairs", default=None)
    p.add_argument("--dim", type=positive_int, default=64)
    p.add_argument("--out", default=None)

    p = sub.add_parser("kappa", help="two-annotator agreement from a labels file")
    p.add_argument("--labels", required=True)

    p = sub.add_parser("report", help="emit CSV/JSON band reports from results files")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--scheme", choices=corpus.SCHEMES, default="coarse3")
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# Manifest handling

@dataclass
class RunManifest:
    dataset: str
    model: str
    prompt: str
    output_dir: str
    seed: int = 0
    budget_usd: float | None = None
    provider: str = "http"
    endpoint: str = ""
    api_key_env: str = "RESTORY_API_KEY"
    cache_dir: str = ""
    embedder: str = "synthetic:64"
    concurrency: int = 1
    few_shot_k: int = 3
    temperature: float = 0.0
    min_output_tokens: int = 50
    repetition_penalty: float = 0.2
    max_output_tokens: int = 4096
    input_cost_per_mtok: float | None = None
    output_cost_per_mtok: float | None = None
    retries: int = 3


def _manifest_value(key: str, annotation: str, text: str):
    """`text` as the type of RunManifest's `key`; a float must be finite."""
    if annotation == "int":
        return int(text)
    if annotation.startswith("float"):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {text}")
        return value
    return text


def parse_manifest(path: str | Path) -> RunManifest:
    """Keys and types are RunManifest's fields; those without a default are
    required, and the rest default to RunManifest's values. A key may be
    given once."""
    known = {f.name: f for f in fields(RunManifest)}
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: manifest is not UTF-8: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"{path}: cannot read manifest: {exc.strerror}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown manifest key {key!r}")
        if (first := first_line.setdefault(key, lineno)) != lineno:
            raise UsageError(f"{path}:{lineno}: duplicate manifest key {key!r} "
                             f"(first on line {first})")
        values[key] = value.strip()

    for f in known.values():
        if f.default is MISSING and f.name not in values:
            raise UsageError(f"{path}: manifest missing required key {f.name!r}")
    if values["prompt"] not in PROMPT_VARIANTS:
        raise UsageError(
            f"{path}: undefined prompt variant {values['prompt']!r}; "
            "choose one of: " + ", ".join(sorted(PROMPT_VARIANTS))
        )
    try:
        manifest = RunManifest(**{
            key: _manifest_value(key, known[key].type, text) for key, text in values.items()
        })
    except ValueError as exc:
        raise UsageError(f"{path}: bad manifest value: {exc}") from exc
    for key, least in (("budget_usd", 0), ("concurrency", 1), ("retries", 0)):
        value = getattr(manifest, key)
        if value is not None and value < least:
            raise UsageError(f"{path}: {key} must be >= {least}, got {value}")
    if (manifest.input_cost_per_mtok is None) != (manifest.output_cost_per_mtok is None):
        raise UsageError(f"{path}: input_cost_per_mtok and output_cost_per_mtok go together")
    return manifest


def _resolve_provider(path: str, manifest: RunManifest, dataset):
    from . import gateway
    if manifest.provider == "http":
        if not manifest.endpoint:
            raise UsageError("provider = http requires an endpoint key in the manifest")
        try:
            return gateway.HttpProvider(manifest.endpoint, api_key_env=manifest.api_key_env)
        except ValueError as exc:
            raise UsageError(f"{path}: bad manifest value: {exc}") from exc
    if manifest.provider == "echo":
        return gateway.EchoProvider(
            {rec.snippet.source_text: rec.reference_story for rec in dataset}
        )
    if manifest.provider.startswith("static:"):
        return gateway.StaticProvider(manifest.provider[len("static:"):])
    raise UsageError(f"unknown provider {manifest.provider!r}; use http, echo, or static:<text>")


def _resolve_embedder(spec: str, seed: int):
    name, colon, dim = spec.partition(":")
    if name == "synthetic" and (not colon or dim.isdecimal() and int(dim) > 0):
        from .metrics import HashEmbedder
        return HashEmbedder(dim=int(dim) if colon else 64, salt=seed)
    raise UsageError(f"unknown embedder {spec!r}; use synthetic or synthetic:<positive int>")


# ---------------------------------------------------------------------------
# Subcommand implementations


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_profile(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise DataError(f"not a directory: {root}")
    try:
        paths = sorted(path for path in root.glob(args.glob) if path.is_file())
    except (ValueError, NotImplementedError, IndexError) as exc:  # IndexError: "." before 3.13
        raise UsageError(f"bad --glob pattern {args.glob!r}: give a non-empty pattern "
                         "relative to the directory, such as '*.cpp'") from exc
    if not paths:
        raise DataError(f"no files match {args.glob!r} under {root}")
    rows, warnings = corpus.profile_files(paths)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_or_print(csv_text(("path", "nloc", "stratum"), rows), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    records = corpus.load_dataset(args.dataset)
    by_id = {rec.snippet.id: rec for rec in records}
    chosen = corpus.sample_stratified([rec.snippet for rec in records],
                                      args.per_stratum, args.seed)
    sampled = [by_id[s.id] for s in chosen]
    if args.out:
        corpus.save_dataset(sampled, args.out)
    else:
        for rec in sampled:
            sys.stdout.write(corpus.record_to_json(rec) + "\n")
    print(f"sampled {len(sampled)} snippets from "
          f"{len({s.stratum_index for s in chosen})} strata", file=sys.stderr)
    return EXIT_OK


def _cmd_generate(args) -> int:
    from . import runner
    from .gateway import Gateway, GenerationConfig, ModelSpec, model_spec
    manifest = parse_manifest(args.manifest)
    embedder = _resolve_embedder(manifest.embedder, manifest.seed)
    variants = sorted(PROMPT_VARIANTS) if args.grid else [manifest.prompt]
    try:
        if manifest.input_cost_per_mtok is not None:  # parse_manifest pairs the two rates
            model = ModelSpec(manifest.model, manifest.input_cost_per_mtok,
                              manifest.output_cost_per_mtok)
        else:
            model = model_spec(manifest.model)
        generation = GenerationConfig(
            temperature=manifest.temperature,
            min_output_tokens=manifest.min_output_tokens,
            repetition_penalty=manifest.repetition_penalty,
            max_output_tokens=manifest.max_output_tokens,
        )
        configs = [default_prompt_config(v, few_k=manifest.few_shot_k) for v in variants]
    except DataError as exc:
        raise UsageError(f"{args.manifest}: bad manifest value: {exc}") from exc
    dataset = corpus.load_dataset(manifest.dataset)
    provider = _resolve_provider(args.manifest, manifest, dataset)
    base_dir = Path(manifest.output_dir)
    cache_dir = Path(manifest.cache_dir) if manifest.cache_dir else base_dir / "cache"
    worst = EXIT_OK
    with Gateway(
        provider,
        model,
        generation,
        cache_dir=cache_dir,
        retries=manifest.retries,
        budget_usd=manifest.budget_usd,
        concurrency=manifest.concurrency,
    ) as gateway:
        for config in configs:
            variant = config.label
            results_path = (base_dir / variant if args.grid else base_dir) / "results.jsonl"
            try:
                result = runner.run_experiment(dataset, gateway, config, embedder=embedder,
                                               results_path=results_path)
            except BudgetExceededError:
                kept = results_path.read_bytes().count(b"\n")
                print(f"{variant}: cut by the budget after {kept} of {len(dataset)} records",
                      file=sys.stderr)
                raise
            print(
                f"{variant}: {len(result.records)} records, "
                f"{len(result.failures)} failures, {result.provider_calls} provider calls, "
                f"{result.total_cost_usd:.6f} USD",
                file=sys.stderr,
            )
            if result.short_completions:
                print(f"{variant}: {result.short_completions} of {result.new_completions} "
                      f"completions shorter than min_output_tokens = "
                      f"{generation.min_output_tokens}", file=sys.stderr)
            if not result.records:
                worst = EXIT_PROVIDER  # every entry failed
    return worst


@contextmanager
def _whole_file(path):
    """Name `path` in a data error about the file as a whole, which the
    library raises without knowing where its input came from."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _report_rows(path: str, scheme: str, metric: str = corpus.GREEDY_METRIC) -> list[dict]:
    """The report rows of one results file, which must hold a scored record."""
    from . import runner
    records, failures = runner.load_results(path)
    if not records:
        raise DataError(f"{path}: no scored records")
    with _whole_file(path):
        return runner.collect_report_rows(records, scheme, metric, failures)


def _mean_cell(mean: float | None) -> str:
    """A mean as `evaluate` prints it: blank in a band of failures alone."""
    return " " * 9 if mean is None else f"{mean:>9.2f}"


def _cmd_evaluate(args) -> int:
    from . import runner
    if args.metric not in runner.METRICS:  # before the results file is read
        raise UsageError(f"restory evaluate: error: argument --metric: invalid choice: "
                         f"{args.metric!r} (choose from {', '.join(map(repr, runner.METRICS))})")
    rows = _report_rows(args.results, args.scheme, args.metric)
    lines = [f"{'band':>9} {'n':>5} {'precision':>9} {'recall':>9} {'f1':>9} {'failures':>8}"]
    for row in rows:
        lines.append(
            f"{row['band']:>9} {row['n']:>5} {_mean_cell(row['precision'])} "
            f"{_mean_cell(row['recall'])} {_mean_cell(row['f1'])} {row['failures']:>8}"
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from . import runner
    from .metrics import HashEmbedder
    pairs = runner.load_calibration_pairs(args.pairs)
    with _whole_file(args.pairs):
        rows = runner.calibration_experiment(pairs, HashEmbedder(dim=args.dim))
    columns = ("metric", "variant", *runner.CALIBRATION_CATEGORIES)
    _write_or_print(csv_text(columns, ([row[c] for c in columns] for row in rows)), args.out)
    return EXIT_OK


def _label_row(obj: dict) -> tuple:
    row = obj["id"], obj["a"], obj["b"]
    hash(row)  # ids and labels are counted in sets
    return row


def _cmd_kappa(args) -> int:
    from . import runner
    rows = read_unique_jsonl(args.labels, _label_row, lambda row: row[0], "item")
    ids, labels_a, labels_b = zip(*rows) if rows else ((), (), ())
    with _whole_file(args.labels):
        value = runner.cohen_kappa(runner.AnnotationSet(ids, labels_a, labels_b))
    print(f"{value:.3f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import runner
    all_rows = [row for path in args.inputs for row in _report_rows(path, args.scheme)]
    runner.write_report_rows(all_rows, args.out, args.format)
    print(f"wrote {len(all_rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "profile": _cmd_profile,
    "sample": _cmd_sample,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "calibrate": _cmd_calibrate,
    "kappa": _cmd_kappa,
    "report": _cmd_report,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
