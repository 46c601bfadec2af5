"""hardstab benchmark: times the package's tables through the entry points a
user calls and checks every table it times.

    python3 perfbench/run.py --workload lmi-sweep|ce-lqr|kl-mc|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout; hardstab is imported from the checkout's ``src/``.
One caller in one process (a closed loop), BLAS and OpenMP pinned to one
thread.  ``--trace 0`` repeats the workload's table for about ``--seconds``
seconds and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced tables and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""

import os

# Before numpy is imported anywhere in this process or its children.
PINNED_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = PINNED_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("lmi-sweep", "ce-lqr", "kl-mc")
DEFAULT_SEED = 20240814
DEFAULT_SECONDS = 25
MIN_TABLES = 3  # a median of fewer samples is a mean or a single sample
SETUP_SAMPLES = 7
END_TO_END = (
    ("table_s", "s"),
    ("max_row_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Run:
    table_s: list = field(default_factory=list)  # untraced tables
    max_row_s: list = field(default_factory=list)
    traced_table_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per traced table
    outputs: list = field(default_factory=list)  # wall-time-free CSV lines per table
    row_lines: list = field(default_factory=list)  # the largest row run alone
    spans: list = field(default_factory=list)  # of the last traced table
    error: str = ""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(name: str, seed: int, work_dir: Path) -> list[float]:
    """Seconds from process start until numpy and hardstab are imported and
    the workload's inputs are built, over SETUP_SAMPLES fresh processes."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
    command += ["--workload", name, "--seed", str(seed), "--work-dir", str(work_dir)]
    samples = []
    # the first start may write bytecode caches, which users pay once: not counted
    for attempt in range(SETUP_SAMPLES + 1):
        started = time.perf_counter()
        probe = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        ready = float(probe.stdout.split()[-1])
        if attempt:
            samples.append(ready - started)
    return samples


def measure(workload, seconds: float, tracer=None) -> Run:
    """Repeat the table until ``seconds`` have passed and MIN_TABLES tables
    are done (when tracing, at least one of each kind)."""
    import layers

    run = Run()
    start = time.perf_counter()
    traced_turn = False
    while True:
        try:
            if traced_turn:
                with tracer.installed(layers.TARGETS):
                    t0 = time.perf_counter()
                    workload.table()
                    run.traced_table_s.append(time.perf_counter() - t0)
                run.spans = tracer.take()
                run.layers.append(layers.layer_metrics(run.spans))
            else:
                t0 = time.perf_counter()
                slowest = workload.table()
                run.table_s.append(time.perf_counter() - t0)
                if tracer is None:
                    if slowest is None:
                        t0 = time.perf_counter()
                        workload.largest_row()
                        slowest = time.perf_counter() - t0
                        run.row_lines.append(workload.read_row())
                    run.max_row_s.append(slowest)
            run.outputs.append(workload.read_table())
        except Exception:
            run.error = traceback.format_exc()
            break
        if tracer is not None:
            traced_turn = not traced_turn
        if tracer is None:
            complete = len(run.table_s) >= MIN_TABLES
        else:
            complete = run.table_s and run.traced_table_s
        if complete and time.perf_counter() - start >= seconds:
            break
    return run


def judge(workload, run: Run) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, failure messages).  The first table is
    checked in full; every later table and every lone largest row must
    repeat it exactly."""
    if len(run.outputs) == 1 and workload.largest_row is None:
        workload.table()  # two calls with one seed must agree bit for bit
        run.outputs.append(workload.read_table())
    first = run.outputs[0]
    verdicts, extra = workload.check(first)
    failures = [f"row {i + 1}: {v}" for i, v in enumerate(verdicts) if v]
    failures += [f"extra row {i + 1}: {v}" for i, v in enumerate(extra) if v]
    rows = len(first) - 1
    attempted = len(verdicts) + len(extra)
    for k, lines in enumerate(run.outputs[1:], start=2):
        attempted += rows
        if lines[0] != first[0]:
            failures += [f"table {k}: header {lines[0]!r}"] * rows
            continue
        for i in range(1, rows + 1):
            if i >= len(lines) or lines[i] != first[i]:
                failures.append(f"table {k} row {i}: differs from table 1")
    for line in run.row_lines:
        attempted += 1
        if line != first[-1]:
            failures.append(f"largest row alone: {line!r} vs {first[-1]!r}")
    if run.error:
        attempted += rows
        failures += ["table raised"] * rows
    return attempted, len(failures), failures


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hardstab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, np) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "pinned_threads": int(PINNED_THREADS),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args, work_dir: Path) -> int:
    setup = setup_samples(args.workload, args.seed, work_dir)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import hardstab

    if Path(hardstab.__file__).resolve().parent != (SRC / "hardstab").resolve():
        print(f"perfbench: imported hardstab from {hardstab.__file__}", file=sys.stderr)
        return 2
    import layers
    from spans import Tracer, write_jsonl
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.error:
        print(run.error, file=sys.stderr)
        if not run.outputs or (tracer and not (run.layers and run.table_s)):
            return 1

    attempted, failed, failures = judge(workload, run)
    header = f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
    print(f"{header} trace={args.trace} tables={len(run.table_s) + len(run.traced_table_s)}")
    if args.trace:
        missing = layers.missing_hits(tracer.hits, workload.expected_sites)
        if missing:
            print(f"perfbench: hit check failed, never called: {missing}", file=sys.stderr)
            return 3
        untraced = statistics.median(run.table_s)
        traced = statistics.median(run.traced_table_s)
        values = {
            name: statistics.median(table[name] for table in run.layers)
            for name in run.layers[0]
        }
        values.update({
            "trace.table_s": traced,
            "trace.untraced_table_s": untraced,
            "trace.overhead_s": traced - untraced,
        })
        metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        print(
            f"table_s untraced {untraced:.6g} s, traced {traced:.6g} s: "
            f"overhead {traced - untraced:.6g} s ({(traced / untraced - 1) * 100:.1f}%)"
        )
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
        write_jsonl(run.spans, spans_path)
        print(f"# spans of the last traced table: {spans_path}")
    else:
        samples = {
            "table_s": run.table_s,
            "max_row_s": run.max_row_s,
            "setup_s": setup,
        }
        metrics = {
            name: metric(statistics.median(values), "s") for name, values in samples.items()
        }
        metrics["peak_rss_mib"] = metric(peak_rss_mib, "MiB")
        for name, unit in END_TO_END:
            count = f" (median of {len(samples[name])})" if name in samples else ""
            print(f"{name} = {metrics[name]['value']:.6g} {unit}{count}")
    print(f"failed_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} rows)")
    for failure in failures:
        print(f"# FAILED {failure}")
    record = provenance(args.seed, np)
    print("# provenance " + json.dumps(record))

    result = {
        "correct": failed == 0 and not run.error,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(
        json.dumps(
            {
                "provenance": record,
                "result": result,
                "samples": {
                    "table_s": run.table_s,
                    "max_row_s": run.max_row_s,
                    "traced_table_s": run.traced_table_s,
                    "setup_s": setup,
                },
                "failures": failures,
                "hits": dict(tracer.hits) if tracer else {},
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is its own); one
    combined JSON line with metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print("\n".join(lines))
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardstab" / "__init__.py").is_file():
        print(f"perfbench: no hardstab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return run_workload(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
