"""bagkit benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bagkit is imported from src/ with no
install. Every timed pass is a fresh interpreter running ``python -m bagkit``
exactly as a user would, so nothing a process keeps between passes can show
up as a gain. Set-up is timed apart from the passes, in fresh interpreters
too, and its first, untimed, repetition lets lazy set-up (bytecode caches,
the page cache) finish before anything is measured. Passes repeat until S
seconds have gone by, at least MIN_ROUNDS times, and each metric is the
median over the passes. Every pass's outputs are checked (see checks.py),
and their bytes must be the same in every pass of a run.

With --trace 1 the run alternates untraced and traced passes (see
trace_pass.py) and prints per-layer metrics from the traced ones, plus the
tracing overhead against the untraced ones. The last line of stdout is the
result object; the lines before it give every pass and the sha256 of every
output file, compared with reference_hashes.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE_FILE = HERE / "reference_hashes.json"

MIN_ROUNDS = 2
SETUP_REPEATS = 5
RUN_BUDGET_S = 160.0  # a run must end within 180 s
# One BLAS thread per worker: with --jobs 2 the two workers then fill the
# two cores of the reference machine and nothing more.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pass_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


class BatchWorkload:
    """`bagkit run` over a generated batch config."""

    def __init__(self, part: str, traced_jobs_check: int | None = None):
        self.part = part
        self.traced_jobs_check = traced_jobs_check

    def argv(self, inputs: Path, out: Path, seed: int, jobs: int | None = None) -> list[str]:
        ws = inputs / self.part
        return [
            "run",
            "--config", str(ws / "configs.json"),
            "--data", str(ws / "data"),
            "--out", str(out),
            "--jobs", str(jobs or 1),
        ]

    def _configs(self, inputs: Path) -> dict:
        return json.loads((inputs / self.part / "configs.json").read_text(encoding="utf-8"))

    def models(self, inputs: Path) -> int:
        return sum(len(c["members"]) * len(c["tasks"]) for c in self._configs(inputs)["configs"])

    def check(self, inputs: Path, out: Path, seed: int) -> list[str]:
        return checks.check_run(out, self._configs(inputs), inputs / self.part / "data")

    def reference_key(self, seed: int) -> str:
        # The toy workspace does not depend on the seed.
        return "toy" if self.part == "toy" else f"{self.part}/seed={seed}"


class VarianceWorkload:
    """`bagkit variance` on the toy topics2 task, protocol seed = workload seed."""

    part = "toy"
    task, model, dims, n, m = "topics2", "logreg", 256, 10, 5
    traced_jobs_check = None

    def argv(self, inputs: Path, out: Path, seed: int, jobs: int | None = None) -> list[str]:
        return [
            "variance",
            "--task", self.task,
            "--data", str(inputs / "toy" / "data"),
            "--out", str(out),
            "--model", self.model,
            "--dims", str(self.dims),
            "--n", str(self.n),
            "--m", str(self.m),
            "--seed", str(seed),
        ]

    def models(self, inputs: Path) -> int:
        return self.n + self.n * self.m

    def check(self, inputs: Path, out: Path, seed: int) -> list[str]:
        task_dir = inputs / "toy" / "data" / self.task
        return checks.check_variance(out, self.task, task_dir, self.n, self.m, seed)

    def reference_key(self, seed: int) -> str:
        return f"variance/seed={seed}"


WORKLOADS = {
    "toy_batch": BatchWorkload("toy", traced_jobs_check=2),
    "variance": VarianceWorkload(),
    "single_large": BatchWorkload("large"),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "models_per_s": "models/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the values are computed in layer_metrics().
PER_LAYER = {
    "predictor.featurize.calls": "count",
    "predictor.featurize.unique_ratio": "ratio",
    "predictor.featurize.self_s": "s",
    "predictor.fit.calls": "count",
    "predictor.fit.unique_ratio": "ratio",
    "predictor.fit.self_s": "s",
    "predictor.predict_proba_dataset.calls": "count",
    "predictor.predict_proba_dataset.self_s": "s",
    "experiment.grid_search.calls": "count",
    "experiment.grid_search.unique_ratio": "ratio",
    "experiment.grid_search.s": "s",
    "experiment.run_config.s": "s",
    "experiment.variance_analysis.s": "s",
    "experiment.write_report.s": "s",
    "experiment.write_variance_report.s": "s",
    "resample.materialize.calls": "count",
    "resample.materialize.s": "s",
    "resample.make_plan.s": "s",
    "prune.prune_magnitude.s": "s",
    "ensemble.predict_dataset.self_s": "s",
    "metrics.evaluate.s": "s",
    "config.load_data_dir.s": "s",
    "dataset.load_jsonl.s": "s",
    "dataset.load_jsonl.rows": "count",
    "cli.run_config.busy_s": "s",
    "cli.run_config.wait_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_process(args: list[str], deadline: float, log_dir: Path) -> Pass:
    """Run a fresh interpreter to completion; time it and take its rusage.

    rusage from wait4 covers every thread of the process and every child it
    waited for. The process is killed if it outlives the deadline.
    """
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with out_path.open("wb") as out_fh, err_path.open("wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=pass_env(), stdout=out_fh, stderr=err_fh
        )
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced pass's spans.

    A span's self time is its duration minus the durations of its direct
    children. A layer the workload never calls reads 0.
    """
    spans = doc["spans"]
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]

    def unique_ratio(name: str) -> float:
        return doc["distinct"].get(name, 0) / calls[name] if calls[name] else 0.0

    pool_starts = sorted(doc["pool_starts"])
    wait = 0.0
    for _, _, name, start, _, _ in spans:
        if name == "experiment.run_config" and pool_starts:
            began = max((p for p in pool_starts if p <= start), default=start)
            wait += start - began

    values = {"cli.run_config.busy_s": total["experiment.run_config"], "cli.run_config.wait_s": wait}
    for metric in PER_LAYER:
        if metric in values or metric.startswith("trace."):
            continue
        layer, what = metric.rsplit(".", 1)
        if what == "calls":
            values[metric] = float(calls[layer])
        elif what == "unique_ratio":
            values[metric] = unique_ratio(layer)
        elif what == "self_s":
            values[metric] = self_time[layer]
        elif what == "s":
            values[metric] = total[layer]
        elif what == "rows":
            values[metric] = float(doc["rows"].get(layer, 0))
    return values


def load_reference(key: str) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(key)


def compare_reference(hashes: dict[str, str], reference: dict | None) -> dict:
    if reference is None:
        return {"status": "no reference for this workload and seed"}
    differ = sorted(f for f in set(hashes) | set(reference) if hashes.get(f) != reference.get(f))
    return {"status": "mismatch" if differ else "match", "differing_files": differ}


class Run:
    """One benchmark run: its inputs, passes, checks and counters."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / name
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] | None = None

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        gen = run_process(
            [str(HERE / "gen_inputs.py"), str(self.seed), str(self.inputs), self.workload.part],
            self.deadline,
            self.dir,
        )
        if gen.code != 0:
            raise RuntimeError(f"input generation failed:\n{gen.stderr}")

    def setup_time(self) -> float:
        probe = run_process(
            [str(HERE / "setup_probe.py"), *self.workload.argv(self.inputs, self.out, self.seed)],
            self.deadline,
            self.dir,
        )
        if probe.code != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        return json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"]

    def bagkit_pass(self, jobs: int | None = None, spans: Path | None = None) -> Pass | None:
        """One checked pass; None if it failed. Traced when spans is given."""
        shutil.rmtree(self.out, ignore_errors=True)
        entry = ["-m", "bagkit"] if spans is None else [str(HERE / "trace_pass.py"), str(spans)]
        argv = self.workload.argv(self.inputs, self.out, self.seed, jobs)
        result = run_process([*entry, *argv], self.deadline, self.dir)
        self.attempted += 1
        if result.code != 0:
            self.failed += 1
            print(f"pass failed with exit code {result.code}:\n{result.stderr}", file=sys.stderr)
            return None
        self.problems += self.workload.check(self.inputs, self.out, self.seed)
        hashes = checks.sha256_files(self.out)
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            self.problems.append(f"output bytes differ between passes: {hashes} vs {self.hashes}")
        return result

    def time_left_for(self, seconds: float) -> bool:
        return time.perf_counter() + 1.25 * seconds < self.deadline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bagkit" / "__init__.py").is_file():
        print(f"bagkit sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed % 2**32, time.perf_counter() + RUN_BUDGET_S)
    run.prepare()
    setup = [run.setup_time() for _ in range(1 if args.trace else SETUP_REPEATS + 1)][1:]

    jobs_check = None
    if args.trace and run.workload.traced_jobs_check:
        # Untimed pass with another --jobs value: the bytes must not change.
        jobs_check = run.bagkit_pass(jobs=run.workload.traced_jobs_check)

    plain: list[Pass] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    spans_path = run.dir / "spans.json"
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        result = run.bagkit_pass()
        if result is not None:
            plain.append(result)
        if args.trace:
            result = run.bagkit_pass(spans=spans_path)
            if result is not None:
                traced.append(layer_metrics(json.loads(spans_path.read_text(encoding="utf-8"))))
                traced_walls.append(result.wall_s)
        rounds += 1
        round_s = time.perf_counter() - round_start
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
            break
        if not run.time_left_for(round_s):
            break

    if not plain or (args.trace and not traced):
        print("no pass succeeded", file=sys.stderr)
        return 1

    hashes = run.hashes or {}
    print(
        json.dumps(
            {
                "workload": run.name,
                "seed": run.seed,
                "passes": [
                    {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb}
                    for p in plain
                ],
                "traced_walls_s": traced_walls,
                "jobs_check_wall_s": jobs_check and jobs_check.wall_s,
                "setup_s": setup,
                "sha256": hashes,
                "reference": compare_reference(hashes, load_reference(run.workload.reference_key(run.seed))),
                "problems": run.problems,
            }
        )
    )

    if args.trace:
        values = {m: statistics.median(t[m] for t in traced) for m in PER_LAYER if m in traced[0]}
        untraced_wall = statistics.median(p.wall_s for p in plain)
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced_wall - 1.0
        units = PER_LAYER
    else:
        wall = statistics.median(p.wall_s for p in plain)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "models_per_s": run.workload.models(run.inputs) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        }
        units = END_TO_END
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    shutil.rmtree(run.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
