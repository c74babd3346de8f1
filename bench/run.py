"""Layered benchmark for bhhpm.

From the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-tables, deep-series, dense-grid, general-config (see
``workloads.py``).  With ``--trace 0`` it times the workload's ops for S
seconds and reports the end-to-end metrics; with ``--trace 1`` it reports
the per-layer metrics of a separate pass: module probes plus one op under
cProfile.  Every output is checked against the Taylor-oracle route.

Standard output ends with the metrics by name, unit and sample count, a
provenance line, and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The same record goes to
``.bench_out/<workload>.seed<N>.trace<T>.json``.  Exits 2 without a result
when the checkout has no bhhpm sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

from harness import OUT, ROOT, SRC, Run, median, peak_rss_mb, tail

SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def end_to_end(run: Run, workload) -> dict[str, tuple[float, str]]:
    """Set-up, then ops in a closed loop for ``run.seconds`` seconds."""
    run.import_spans("bhhpm", IMPORT_REPEATS, "import_s")
    for _ in range(SETUP_REPEATS):
        run.timed(("setup_in_process_s",), workload.setup)
        run.measure_speed(force=True)
    workload.prepare()
    start, longest = time.perf_counter(), 0.0
    run.op = 0
    while run.op == 0 or (time.perf_counter() - start < run.seconds
                          and run.remaining() > 3 * longest + 5):
        began = time.perf_counter()
        workload.op()
        longest = max(longest, time.perf_counter() - began)
        run.op += 1
    run.op = None
    run.measure_speed(force=True)
    samples = run.samples()
    return {
        "setup_s": (median(samples["import_s"]) + median(samples["setup_in_process_s"]), "s"),
        "op_s": (median(samples["op_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run: Run, workload) -> dict[str, tuple[float, str]]:
    """Module probes without the profiler, then one op under cProfile."""
    from probes import module_probes, traced_metrics, write_top_frames

    workload.setup()
    workload.prepare()
    metrics = module_probes(run)
    op = workload.traced_op()
    samples = run.samples()
    metrics.update(traced_metrics(op))
    metrics["trace.overhead_s"] = (
        median(samples["trace.traced_s"]) - median(samples["trace.untraced_s"]), "s")
    run.notes["top_frames"] = write_top_frames(op, run, samples)
    run.notes["traced_op"] = op.label
    return dict(sorted(metrics.items()))


def details(run: Run) -> dict[str, dict]:
    """Every named series summarised: median, tail and sample count."""
    samples = run.samples()
    out = {}
    for name, values in sorted(samples.items()):
        entry = {"median": median(values), "n": len(values)}
        found = tail(values)
        if found:
            entry["tail"], entry["tail_percentile"] = found
        out[name] = entry
    if "cells" in run.notes:
        out["cells_per_s"] = {"median": run.notes["cells"] / sum(samples["op_s"]),
                              "n": len(samples["op_s"])}
    kernel = [s for _, s in run.speeds]
    out["speed_kernel_s"] = {"median": median(kernel), "n": len(kernel)}
    out["failed_share"] = {"median": run.failed / max(run.attempted, 1), "n": run.attempted}
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bhhpm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(run: Run, trace: int, sample_counts: dict[str, int]) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": trace,
        "samples": sample_counts,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-tables", "deep-series", "dense-grid", "general-config"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "bhhpm" / "__init__.py").is_file():
        print(f"bench: no bhhpm sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run = Run(args.workload, args.seed, args.seconds)
    workload = workloads.WORKLOADS[run.workload](run)
    metrics = per_layer(run, workload) if args.trace else end_to_end(run, workload)

    summary = details(run)
    counts = {name: entry["n"] for name, entry in summary.items()}
    counts.update({name: 1 for name in metrics if name not in counts})
    if "setup_s" in metrics:
        counts["setup_s"] = SETUP_REPEATS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(run, args.trace, counts),
        "details": summary,
        "notes": run.notes,
        "failures": run.failures,
        "samples": run.samples(),
        "speed_kernel_s": [s for _, s in run.speeds],
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run.workload}.seed{run.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"# {run.workload}, seed {run.seed}, {run.seconds:g} s, trace {args.trace}: "
          f"{run.attempted} ops, {run.failed} failed, {run.elapsed():.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:>14.6g} {unit:6} n={counts.get(name, 1)}")
    for name, entry in summary.items():
        extra = f"  p{entry['tail_percentile']:.1f} {entry['tail']:.6g}" if "tail" in entry else ""
        print(f"  {name:32} {entry['median']:>14.6g}        n={entry['n']}{extra}")
    for note, value in run.notes.items():
        print(f"  {note}: {value}")
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
