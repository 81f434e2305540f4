"""restory benchmark: the generate -> score -> report loop, end to end.

    python3 benchmarks/run.py --workload cold-http --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark builds its inputs from
`--seed`, starts the provider stub, prepares the workload, measures
`setup_s` in fresh interpreters, runs one untimed warm-up iteration and
then timed iterations for `--seconds`, checking every iteration's outputs.
It prints each metric by name with its unit, then, as the last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
run alternates untraced and traced iterations, so it also gives the tracing
overhead, and writes its spans to `.bench_work/spans-<workload>-<seed>.jsonl`.

Exit codes: 0 all checks passed, 1 an output check failed, 2 the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PER_STRATUM = 5  # 175 records over the 35 strata
SETUP_PROBES = 5
MIN_ITERATIONS = 3  # per kind; a traced run needs this many traced and untraced


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<36} {value:<14.6g} {unit:<10} {note}".rstrip())


def measure(workload, seconds: float, tracer) -> tuple[list, list, list]:
    """Warm up once, then run iterations until `seconds` of timed work.
    Returns (untraced outcomes, traced outcomes, traced iteration traces)."""
    from tracing import check_iteration

    workload.iteration(0)
    plain, traced, traces = [], [], []
    k = 1
    while True:
        gc.collect()  # every iteration starts without the last one's garbage
        if tracer is not None and k % 2 == 0:
            with tracer.iteration() as it:
                traced.append(workload.iteration(k))
            check_iteration(it)
            traces.append(it)
        else:
            plain.append(workload.iteration(k))
        k += 1
        spent = sum(o.wall_s for o in plain + traced)
        enough = len(plain) >= MIN_ITERATIONS and (tracer is None or len(traced) >= MIN_ITERATIONS)
        if spent >= seconds and enough:
            return plain, traced, traces


def run(args, work: Path) -> int:
    # These import restory, so they load only once SRC is on sys.path.
    import corpus_gen
    from provider_stub import Stub
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, CheckFailed, probe_setup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    inputs = corpus_gen.generate(work / "inputs", args.seed, PER_STRATUM)
    try:
        with Stub(inputs.replies, kind.stub_delay_ms) as stub:
            workload = kind(work, inputs, stub, args.seed)
            workload.setup()
            setup_s = statistics.median(
                probe_setup(SRC, workload.probe_manifest()) for _ in range(SETUP_PROBES))
            tracer = Tracer(inputs.id_by_reply, inputs.id_by_reference) if args.trace else None
            plain, traced, traces = measure(workload, args.seconds, tracer)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        # The run stops at the first failed check, so it counts as one failed attempt.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    records = sum(o.records for o in plain)
    wall_s = statistics.median(o.wall_s for o in plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    shares = " ".join(f"{k}={v / inputs.records:.3f}" for k, v in sorted(inputs.reply_kinds.items()))
    print(f"workload {workload.name} seed {args.seed}: {inputs.records} records, "
          f"{len(plain)} untraced + {len(traced)} traced iterations after a warm-up")
    print(f"  reply kinds: {shares}")
    print("  realised: " + " ".join(f"{k}={v:.3f}" for k, v in workload.shares.items()))
    print(f"  digest {workload.name}: {workload.reference}")
    print("  iteration wall_s: " + " ".join(f"{o.wall_s:.4f}" for o in plain))
    walls = sorted(o.wall_s for o in plain)
    _line("wall_s", wall_s, "s", f"median of {len(walls)}, range {walls[0]:.4f}-{walls[-1]:.4f}")
    if records:
        _line("records_per_s", records / sum(o.wall_s for o in plain), "records/s")
    _line("setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh interpreters")
    _line("peak_rss_mb", rss_mb, "MB")
    _line("failed_frac", failed / attempted, "ratio")
    spend = sum(o.spend_usd for o in plain)
    if spend:
        _line("usd_per_record", spend / records, "USD")

    if tracer is None:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    else:
        metrics = layer_metrics(traces, [o.wall_s for o in traced], [o.wall_s for o in plain])
        spans = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"  spans: {spans.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            _line(name, value, unit)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "restory" / "cli.py").is_file():
        print(f"error: restory sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The stub is local; keep any proxy settings away from it.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
