"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics (see ``perfbench/README.md``).  Each run checks the program's
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also appends
the run, stamped with its provenance, to a JSON-lines results file that
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 7

#: The workload names, checked before the program is imported so the
#: import itself is timed (``workloads.WORKLOADS`` has the classes).
WORKLOADS = ("golden", "abr-fleet", "record-path")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program(host) -> tuple[float, float]:
    """Import everything the measured flow touches; returns its raw
    seconds, and its seconds corrected by the host's slowdown (see
    ``host.py``) right before and right after."""
    before = host.take()
    start = perf_counter()
    import workloads  # noqa: F401  (imports repro and numpy)
    from repro.experiments.base import all_figures

    all_figures()
    seconds = perf_counter() - start
    return seconds, seconds * 2 / (before + host.take())


def _spread_checks(passes) -> dict[str, bool]:
    return {
        "CSV digest identical across repeats":
            len({p.csv_sha256 for p in passes}) == 1,
        "figure payloads identical across repeats":
            len({p.figures_sha256 for p in passes}) == 1,
    }


def _stored_digest_check(state: Path, key: str, passes) -> dict[str, bool]:
    """Compare this run's digests with an earlier run of the same code,
    seed and size in this checkout (the first run records them)."""
    path = state / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    mine = {"csv": passes[0].csv_sha256, "figures": passes[0].figures_sha256}
    if key not in known:
        known[key] = mine
        state.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return {"digests equal an earlier run of this seed": known[key] == mine}


def _failures(passes, run_checks: dict[str, bool]) -> tuple[int, int]:
    attempted = sum(p.attempted for p in passes)
    failed = 0
    for p in passes:
        lost = p.attempted - p.delivered
        failed += p.attempted if not all(p.checks.values()) else lost
    if not all(run_checks.values()):
        failed = attempted
    return attempted, min(failed, attempted)


def end_to_end(workload, passes, setup_s: float,
               corrected: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from times corrected for the host's
    slowdown (``host.py``) unless ``corrected`` is false; ``setup_s``
    comes in as it should be reported.  ``peak_rss_mb`` is never
    corrected."""
    from measure import median, peak_rss_mb, percentile

    def step(name):
        return median(p.step(name, corrected) for p in passes)

    def rate(p):
        if workload.unit == "plays":
            return p.delivered / p.step("study", corrected)
        return p.delivered / p.wall_s(corrected)

    play_s = [s for p in passes for s in p.plays(corrected)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(p.wall_s(corrected) for p in passes), "s"),
        "plays_per_s": (median(rate(p) for p in passes), "1/s"),
        "play_s_p50": (percentile(play_s, 50), "s"),
        "play_s_p90": (percentile(play_s, 90), "s"),
        "records_per_s": (median(
            p.delivered / p.record_path_s(corrected) for p in passes
        ), "1/s"),
        "figures_s": (step("figures"), "s"),
        "csv_export_s": (step("csv_export"), "s"),
        "cache_hit_s": (step("cache_hit"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    state: Path | None = None,
    sizes: dict | None = None,
) -> dict:
    """Run one workload once; returns the full result record."""
    state = state if state is not None else ROOT / ".perfbench"
    work = state / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Anything the program puts in a temp dir stays in the checkout.
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(work)
    try:
        return _run(workload_name, seed, seconds, trace, state, work,
                    sizes or {})
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, state, work, sizes):
    from host import HostSpeed

    host = HostSpeed()
    import_s, import_corrected = _import_program(host)
    from layers import per_layer
    from measure import median, provenance, timed
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed, work, host, **sizes)
    # The traced run reports no setup_s: one set-up is enough there.
    # Each set-up is corrected by the probes right after it.
    setups, corrected = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        setups.append(timed(workload.setup)[0])
        corrected.append(setups[-1] / host.take())

    stamp = provenance(ROOT)
    passes = []
    tracer = None
    if not trace:
        # Whole passes only: stop before one that would end past the
        # measuring window (a pass longer than the window runs once).
        start = perf_counter()
        while not passes or (perf_counter() - start) * (
            len(passes) + 1
        ) / len(passes) <= seconds:
            passes.append(workload.run_pass())
    else:
        passes, tracer = _traced_passes(workload)
    run_checks = {
        **_spread_checks(passes),
        **workload.run_checks(passes),
        **_stored_digest_check(
            state,
            f"{name}:{seed}:{json.dumps(workload.sizes(), sort_keys=True)}:"
            f"{stamp['src_sha256']}:{stamp['bench_sha256']}",
            passes,
        ),
    }
    attempted, failed = _failures(passes, run_checks)
    checks = {
        **{f"pass {i + 1}: {k}": v
           for i, p in enumerate(passes) for k, v in p.checks.items()},
        **run_checks,
    }
    raw = {}
    if trace:
        metrics = per_layer(workload, tracer, passes)
    else:
        metrics = end_to_end(workload, passes,
                             import_corrected + median(corrected))
        raw = end_to_end(workload, passes, import_s + median(setups),
                         corrected=False)
    result = {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "sizes": workload.sizes(),
        "provenance": stamp,
        "checks": checks,
        "failed_share": failed / attempted,
        "setup": {"import_s": import_s, "runs_s": setups,
                  "import_corrected_s": import_corrected,
                  "runs_corrected_s": corrected},
        "steps": [{"raw": p.steps.raw, "corrected": p.steps.corrected}
                  for p in passes],
        # The host's slowdown over the measured flow (compare.py checks
        # that both sides of a comparison saw the same).
        "host_slowdown": median(p.wall_s(False) / p.wall_s() for p in passes),
        "uncorrected": {k: v for k, (v, _unit) in raw.items()},
        "result": result,
    }
    if tracer is not None:
        out = state / "traces" / f"{name}-seed{seed}.jsonl"
        tracer.write(out, {k: record[k] for k in
                           ("workload", "seed", "sizes", "provenance")})
        record["trace_file"] = str(out)
    return record


def _traced_passes(workload):
    """An untraced reference pass, then the traced pass, in-process.

    On ``abr-fleet`` the reference is the pool run (the runtime metrics
    come from it) and the traced pass runs the same cells serially, so
    every span stays in this process.
    """
    from spans import Tracer

    serial = {"workers": 1} if workload.name == "abr-fleet" else {}
    passes = [workload.run_pass()]
    with Tracer() as tracer:
        passes.append(workload.run_pass(tracer, **serial))
    return passes, tracer


def report(record: dict) -> None:
    """Human-readable lines, then the result JSON as the last line."""
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {record['passes']}  sizes {json.dumps(record['sizes'])}")
    for name, passed in record["checks"].items():
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_share':<40} {record['failed_share']:>16.6g} share")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the stamped run to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}; run from "
                    "the root of a full checkout")
    for needed in ("results/study_full.csv", "tests/goldens/meta.json"):
        if not (ROOT / needed).is_file():
            return fail(f"missing {needed} in the checkout")
    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {sorted(WORKLOADS)}")
    sys.path.insert(0, str(ROOT / "src"))
    record = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    if args.out is not None:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    report(record)
    # A run that checked its outputs and printed a result exits 0 even
    # when a check failed: the result line says so.
    return 0


if __name__ == "__main__":
    sys.exit(main())
