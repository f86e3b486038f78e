"""Benchmark for bhent: CLI latency, sweep throughput, oracle time and memory.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It drives bhent only from outside, through
`bhent.cli.main`, `bhent.sweep.run_sweep` and fresh `python -m bhent.cli`
processes, with PYTHONPATH pointing at src/.  Each workload runs for
--seconds, checks every output against references computed in refs.py, and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  --trace 0 measures the end-to-end metrics; --trace 1
alternates plain and traced ops and reports the per-layer metrics.  The exit
status is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import refs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
MIN_OPS = 3
CHILD_TIMEOUT_S = 60
# Every MP_EVERY-th bosonic sweep row is checked against the 30-digit
# polylogarithm (about 5 ms each); the rest get the closed-form checks.
MP_EVERY = {"sweep-figures": 10, "sweep-nearhorizon": 1}
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("cells_per_s", "1/s"), ("peak_rss_mb", "MB"))


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(argv: list[str], out_path: str, err_path: str) -> tuple[int, float, int]:
    """Runs one child to its end; returns (exit code, wall seconds, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{argv} ran longer than {CHILD_TIMEOUT_S} s")
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def describe(label: str, seconds: list[float]) -> str:
    """Median, plus the highest percentile that has ten samples beyond it."""
    if not seconds:
        return f"  {label}: no successful ops"
    text = f"  {label}: n={len(seconds)} p50={statistics.median(seconds) * 1e3:.1f} ms"
    if len(seconds) >= 40:
        q = math.floor(100 * (1 - 10 / len(seconds)))
        text += f" p{q}={statistics.quantiles(seconds, n=100)[q - 1] * 1e3:.1f} ms"
    return text


class Run:
    """State of one run: the clock, samples, op counts and problems found."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: str) -> None:
        self.workload, self.seed, self.seconds, self.trace, self.work = workload, seed, seconds, trace, work
        self.setup_times: list[float] = []
        self.op_times: list[float] = []
        self.traced_times: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracing.Tracer()
        self.traced_ops = 0
        self.rows_per_op = 1.0
        self.peak_rss_kib = 0
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def going(self, ops_done: int, minimum: int = MIN_OPS) -> bool:
        return ops_done < minimum or self.elapsed() < self.seconds

    def setup_sample(self) -> None:
        rc, seconds, _ = spawn(
            [sys.executable, os.path.join(HERE, "child.py"), "setup", self.workload, str(self.seed)],
            os.path.join(self.work, "setup.out"), os.path.join(self.work, "setup.err"))
        if rc != 0:
            raise RuntimeError(f"set-up sample exited {rc}: {read_text(os.path.join(self.work, 'setup.err'))}")
        self.setup_times.append(seconds)

    def maybe_setup_sample(self) -> None:
        """Spreads SETUP_SAMPLES set-up samples evenly through the run."""
        if not self.trace and len(self.setup_times) < SETUP_SAMPLES and (
            self.elapsed() >= len(self.setup_times) * self.seconds / SETUP_SAMPLES
        ):
            self.setup_sample()

    def record(self, kind: str, seconds: float, traced: bool) -> None:
        (self.traced_times if traced else self.op_times).append(seconds)
        if not traced:
            self.by_kind.setdefault(kind, []).append(seconds)

    def finish_setup_samples(self) -> None:
        while not self.trace and len(self.setup_times) < SETUP_SAMPLES:
            self.setup_sample()

    def import_metrics(self) -> dict[str, float]:
        """`-X importtime` figures and the module count of `import bhent.cli`."""
        code = "import sys; n = len(sys.modules); import bhent.cli; print(len(sys.modules) - n)"
        samples, modules = [], 0.0
        out, err = os.path.join(self.work, "imp.out"), os.path.join(self.work, "imp.err")
        for _ in range(IMPORT_SAMPLES):
            rc, _, _ = spawn([sys.executable, "-X", "importtime", "-c", code], out, err)
            if rc != 0:
                raise RuntimeError(f"import probe exited {rc}")
            samples.append(tracing.parse_importtime(read_text(err)))
            modules = float(read_text(out))
        metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        metrics["import.modules"] = modules
        return metrics

    def metrics(self) -> dict[str, dict]:
        if self.trace:
            values = self.tracer.metrics(max(self.traced_ops, 1))
            values.update(self.import_metrics())
            values["trace.overhead_ms"] = (
                tracing.median_or_zero(self.traced_times) - tracing.median_or_zero(self.op_times)
            ) * 1e3
            names = tracing.LAYER_METRICS
        else:
            op_s = statistics.median(self.op_times)
            values = {
                "setup_s": statistics.median(self.setup_times),
                "op_p50_ms": op_s * 1e3,
                "cells_per_s": self.rows_per_op / op_s,
                "peak_rss_mb": self.peak_rss_kib / 1024.0,
            }
            names = END_TO_END
        return {name: {"value": values[name], "unit": unit} for name, unit in names}


# ------------------------------------------------------------ workloads


def run_cli(run: Run, rounds: list[list[inputs.CliOp]]) -> None:
    """Closed loop, one client: one fresh `python -m bhent.cli` per op.

    Whole rounds only, so the fault ops are always the same share of the
    ops attempted.  With tracing, each op runs plain and then traced.
    """
    csv_path = os.path.join(run.work, "cli.csv")
    trace_path = os.path.join(run.work, "trace.json")
    out_path, err_path = os.path.join(run.work, "cli.out"), os.path.join(run.work, "cli.err")
    outputs: dict[tuple, inputs.CliOp] = {}
    done = 0
    while run.going(done, minimum=1):
        for op in rounds[done % len(rounds)]:
            run.maybe_setup_sample()
            for traced in (False, True) if run.trace else (False,):
                argv = list(op.argv) + (["--out", csv_path] if op.csv else [])
                if traced:
                    argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", trace_path] + argv
                else:
                    argv = [sys.executable, "-m", "bhent.cli"] + argv
                with contextlib.suppress(FileNotFoundError):
                    os.remove(csv_path)
                rc, seconds, rss = spawn(argv, out_path, err_path)
                run.attempted += 1
                run.peak_rss_kib = max(run.peak_rss_kib, rss)
                stdout, stderr = read_text(out_path), read_text(err_path)
                csv_text = read_text(csv_path) if op.csv else None
                if traced:
                    with open(trace_path, encoding="utf-8") as fh:
                        run.tracer.merge(json.load(fh))
                    run.traced_ops += 1
                if op.fault_codes:
                    ok = refs.classify_fault_op(rc, stderr, op.fault_codes, csv_text)
                else:
                    ok = rc == 0
                    if ok:
                        outputs[(op.kind, tuple(op.argv), stdout, csv_text)] = op
                if ok:
                    run.record(op.kind, seconds, traced)
                else:
                    run.failed += 1
        done += 1
    for (_, _, stdout, csv_text), op in outputs.items():
        if op.kind == "sweep":
            grid = op.expect["grid"]
            problems = refs.check_sweep_csv(csv_text or "", grid, 1)
            if stdout != f"wrote {grid.rows} rows to {csv_path}\n":
                problems.append(f"sweep printed {stdout!r}")
        else:
            problems = refs.check_cli(op.kind, op.expect, stdout)
        run.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]


def run_sweeps(run: Run, grids: list[tuple]) -> None:
    """In-process run_sweep over every grid; one op is one pass over them all."""
    from bhent import sweep

    paths = [os.path.join(run.work, f"{grid.name}.csv") for grid, _ in grids]
    run.rows_per_op = sum(grid.rows for grid, _ in grids)
    first_texts, first_digest = None, None
    done = 0
    while run.going(done):
        run.maybe_setup_sample()
        traced = run.trace and done % 2 == 1
        if traced:
            run.tracer.install()
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            rows = sum(sweep.run_sweep(spec, path) for (_, spec), path in zip(grids, paths))
        except Exception as exc:  # a pass that raises is a failed op, not a crash
            run.failed += 1
            print(f"pass {done} failed: {exc!r}", file=sys.stderr)
            continue
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                run.tracer.uninstall()
                run.traced_ops += 1
            done += 1
        run.record("pass", seconds, traced)
        texts = [read_text(path) for path in paths]
        digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        if first_digest is None:
            first_texts, first_digest = texts, digest
        elif digest != first_digest:
            run.problems.append(f"pass {done - 1} wrote other bytes than the first pass")
        if rows != run.rows_per_op:
            run.problems.append(f"pass {done - 1} reported {rows} rows, expected {run.rows_per_op}")
    run.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for (grid, _), text in zip(grids, first_texts or []):
        problems = refs.check_sweep_csv(text, grid, MP_EVERY[run.workload])
        run.problems += [f"{grid.name}: {p}" for p in problems]


def run_oracle(run: Run, points: list[float]) -> None:
    """In-process `oracle-check` at inputs.ORACLE_TRUNC on the seeded tanh r points."""
    from bhent import cli

    path = os.path.join(run.work, "oracle.csv")
    argv = ["oracle-check", "--tanhr", ",".join(map(repr, points)),
            "--trunc", str(inputs.ORACLE_TRUNC), "--out", path]
    run.rows_per_op = 2 * len(points) + 27
    first_text = None
    done = 0
    while run.going(done):
        run.maybe_setup_sample()
        traced = run.trace and done % 2 == 1
        if traced:
            run.tracer.install()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                run.tracer.uninstall()
                run.traced_ops += 1
        done += 1
        run.attempted += 1
        if rc != 0:
            run.failed += 1
            print(f"oracle-check exited {rc}: {err.getvalue()}", file=sys.stderr)
            continue
        run.record("oracle-check", seconds, traced)
        text = read_text(path)
        if out.getvalue() != f"wrote {run.rows_per_op} rows to {path}\n":
            run.problems.append(f"oracle-check printed {out.getvalue()!r}")
        if first_text is None:
            first_text = text
        elif text != first_text:
            run.problems.append(f"op {done - 1} wrote another report than the first op")
    run.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if first_text is not None:
        run.problems += refs.check_oracle_csv(first_text, points, inputs.ORACLE_TRUNC)


RUNNERS = {
    "cli-oneshot": run_cli,
    "sweep-figures": run_sweeps,
    "sweep-nearhorizon": run_sweeps,
    "oracle": run_oracle,
}


# ----------------------------------------------------------------- main


def bench(workload: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, SRC)
    import bhent.cli  # compiles bytecode before any timed sample

    if not os.path.abspath(bhent.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported bhent from {bhent.cli.__file__}, not from {SRC}")
    work = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        data = inputs.build(workload, seed, ROOT)
        run = Run(workload, seed, seconds, trace, work)
        RUNNERS[workload](run, data)
        run.finish_setup_samples()
        metrics = run.metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))

    print(f"{workload} seed={seed} trace={int(trace)}: {run.attempted} ops attempted, "
          f"{run.failed} failed, {run.elapsed():.1f} s")
    for kind, times in sorted(run.by_kind.items()):
        print(describe(kind, times))
    if run.traced_times:
        print(describe("traced", run.traced_times))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in run.problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def bench_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in turn, each in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            status = 1
            combined["correct"] = False
        if result:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "bhent", "cli.py"), os.path.join(ROOT, "docs")) if not os.path.exists(p)]
    if missing:
        print(f"error: not a bhent checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # Children import bhent from this tree; every run uses the default series tolerance.
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ.pop("BHE_DEFAULT_TOL", None)
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, bool(args.trace))
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
