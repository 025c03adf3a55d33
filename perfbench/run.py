"""relu-prism benchmark: end-to-end and traced per-layer runs of three workloads.

    python3 perfbench/run.py --workload paper|regions|audit|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; the checkout root is the parent of this directory. The
package is imported from src/ (no install needed). Each set-up and each op
runs in a fresh child process, one at a time, so its peak RSS is its own.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
The times are at reference pace: every timed child samples the machine's
pace while it runs (pace.py), which takes out the host's slow and fast
spells; the times as measured go to the full record. --trace 1 runs
untraced/traced op pairs in process and prints the per-layer metrics. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Workloads and layers: see workloads.py and tracer.py.
--smoke runs every workload once at tiny size, checks that every metric
named in BENCHMARK.json is emitted with its unit, and that the output
checks fail a sabotaged run; it exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace
from workloads import WORKLOADS, check_cli_op, cli_steps, size_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PACE = HERE / "pace.py"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# Set-up is repeated until it has SETUP_MIN samples and SETUP_SECONDS of
# them, or SETUP_MAX samples; setup_s is their median. A short set-up is
# dominated by interpreter start-up noise and gets many samples; the ~5 s
# audit set-up gets two, which keeps an audit run inside the time budget.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 2, 9, 3.0
# Every child is killed past this many seconds from start, so that a run
# always ends within its 180 s budget.
DEADLINE_S = 170.0
# One BLAS thread: the program's matrices are small, and a second thread
# only adds contention for the shared host's cores to every timing.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def at_pace(wall: float, ticks_path: Path, record: list) -> float:
    """`wall` at reference pace, from the ticks its process wrote.

    Appends the wall time as measured and the fragment speeds to `record`.
    """
    ticks = pace.load(ticks_path)
    record.append([wall, *pace.speeds(ticks)])
    return wall * pace.scale(ticks)


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op that failed its checks)."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs children one at a time under a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def child(self, argv: list[str], stdout=subprocess.DEVNULL) -> tuple[float, float, int]:
        """Run argv to completion; return wall seconds, peak RSS in MB and exit code."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child process")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, stdout=stdout, cwd=ROOT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def worker(self, *args: str) -> tuple[float, float, int]:
        return self.child([sys.executable, str(WORKER), *args])


def run_op(runner: Runner, workload: str, work: Path, k: int, seed: int, smoke: bool,
           in_process: bool, traced: bool = False) -> dict:
    """One op in fresh child processes, checked.

    Returns its wall time (at reference pace, except for the in-process ops
    of a traced run, which are compared with each other as measured), the
    wall time as measured, its peak RSS and its failed checks.
    """
    opdir = work / f"op{k}"
    opdir.mkdir(parents=True)
    flags = ["--seed", str(seed)] + (["--smoke"] if smoke else [])
    result: dict = {"steps": {}, "failures": [], "props": {}, "pace": []}
    try:
        if in_process or workload == "regions":
            ticks = opdir / "pace.json"
            paced = ["--pace", str(ticks)] if not in_process else []
            wall, rss, code = runner.worker(
                "op", workload, str(work), str(opdir), *flags, *(["--traced"] if traced else []), *paced)
            result["rss_mb"] = rss
            if code != 0:
                result.update(wall_s=wall, raw_wall_s=wall, failures=[f"worker exited {code}"])
                return result
            out = json.loads((opdir / "result.json").read_text())
            result["raw_wall_s"] = out["wall_s"]
            result["wall_s"] = at_pace(out["wall_s"], ticks, result["pace"]) if paced else out["wall_s"]
            if traced:
                result["metrics"] = out["metrics"]
                result["spans"] = out["spans"]
            if workload == "regions":
                result["failures"], result["props"] = out["failures"], out["props"]
                return result
            codes = out["codes"]
        else:
            codes, walls, raw, rsss = {}, [], [], []
            for step, argv in cli_steps(workload, work, opdir, size_of(smoke), seed):
                ticks = opdir / f"{step}.pace.json"
                with open(opdir / f"{step}.stdout", "w") as out_file:
                    wall, rss, codes[step] = runner.child(
                        [sys.executable, str(PACE), str(ticks), "-m", "relu_prism.cli", *argv],
                        stdout=out_file)
                # A child killed at the deadline leaves no ticks; its op fails its checks.
                paced = at_pace(wall, ticks, result["pace"]) if ticks.is_file() else wall
                result["steps"][f"{step}_s"] = paced
                walls.append(paced)
                raw.append(wall)
                rsss.append(rss)
            result["wall_s"], result["raw_wall_s"], result["rss_mb"] = sum(walls), sum(raw), max(rsss)
        result["failures"], result["props"] = check_cli_op(workload, work, opdir, codes)
        return result
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 sabotage: bool = False) -> dict:
    """Set up several times, then run ops (or traced pairs) for `seconds`."""
    runner = Runner(time.monotonic() + DEADLINE_S)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    flags = ["--seed", str(seed)] + (["--smoke"] if smoke else []) + (["--sabotage"] if sabotage else [])
    try:
        setups: list[float] = []  # at reference pace
        raw_setups: list[float] = []
        setup_pace: list[list[float]] = []
        while len(setups) < SETUP_MIN or (sum(raw_setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
            ticks = work / "setup-pace.json"
            wall, _, code = runner.worker("setup", workload, str(work), *flags, "--pace", str(ticks))
            if code != 0:
                raise BenchError(f"{workload} set-up exited {code}")
            setups.append(at_pace(wall, ticks, setup_pace))
            raw_setups.append(wall)
            ticks.unlink()
        env = json.loads((work / "env.json").read_text())
        rounds: list[list[dict]] = []
        start = time.perf_counter()
        while True:
            k = 2 * len(rounds)
            if trace:
                batch = [run_op(runner, workload, work, k, seed, smoke, in_process=True),
                         run_op(runner, workload, work, k + 1, seed, smoke, in_process=True, traced=True)]
            else:
                batch = [run_op(runner, workload, work, k, seed, smoke, in_process=False)]
            rounds.append(batch)
            elapsed = time.perf_counter() - start
            # Start another round while a round of the mean length so far
            # would end within half a round of `seconds`: the round count is
            # `seconds` over the round length, rounded to nearest (at least 1).
            mean = elapsed / len(rounds)
            if elapsed + mean > seconds + mean / 2:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for batch in rounds for op in batch]
    failed = sum(1 for op in ops if op["failures"])
    if trace:
        metrics = traced_metrics(rounds)
    else:
        metrics = {
            "wall_s": (statistics.median(op["wall_s"] for op in ops), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(op["rss_mb"] for op in ops), "MB"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "env": {
            **env,
            "git_sha": git_sha(),
            "nproc": _nproc(),
            "platform": platform.platform(),
            "blas_threads": {var: runner.env[var] for var in BLAS_THREAD_VARS},
        },
        # Medians of the times as measured, before scaling to reference pace.
        "raw": {
            "wall_s": statistics.median(op["raw_wall_s"] for op in ops),
            "setup_s": statistics.median(raw_setups),
        },
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        # Per timed process: wall as measured, then each pace fragment's mean speed.
        "setup_pace": setup_pace,
        # Median CLI step times of untraced paper/audit ops (simulate_s, verify_s).
        "steps": {
            step: statistics.median(op["steps"][step] for op in ops)
            for step in ops[0]["steps"]
        },
        "ops": [{k: v for k, v in op.items() if k not in ("metrics", "spans")} for op in ops],
        "spans": [
            {"op": i, "name": name, "start": s, "end": e, "parent": parent}
            for i, op in enumerate(ops) for name, s, e, parent in op.get("spans", [])
        ],
    }


def traced_metrics(rounds: list[list[dict]]) -> dict:
    """Median of each per-layer metric over the traced ops, plus the tracing overhead."""
    untraced = [plain["wall_s"] for plain, _ in rounds]
    traced = [t for _, t in rounds if "metrics" in t]
    if not traced:
        raise BenchError("no traced op completed")
    names = traced[0]["metrics"]
    metrics = {
        name: (statistics.median(t["metrics"][name][0] for t in traced), unit)
        for name, (_, unit) in names.items()
    }
    base = statistics.median(untraced)
    over = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_frac"] = ((over - base) / base, "fraction")
    return metrics


def report(result: dict) -> None:
    """Human-readable lines, then the result JSON as the last line of stdout."""
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{w} fail_frac = {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for op in result["ops"]:
        for failure in op["failures"]:
            print(f"{w} check failed: {failure}")
    for step, wall in result["steps"].items():
        print(f"{w} step {step} = {wall:.6g} s")
    for name, wall in result["raw"].items():
        print(f"{w} as measured {name} = {wall:.6g} s")
    print(f"{w} properties = {json.dumps(result['ops'][0]['props'], sort_keys=True)}")
    print(f"{w} env = {json.dumps(result['env'], sort_keys=True)}")
    OUT_ROOT.mkdir(exist_ok=True)
    out = OUT_ROOT / f"{w}-seed{result['seed']}-trace{result['trace']}.json"
    out.write_text(json.dumps(result) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def smoke() -> int:
    """Every workload once at tiny size; every BENCHMARK.json metric with its unit; checks fire."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run_workload(workload, 1, 0, trace, smoke=True)
            report(result)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            if emitted != wanted:
                problems.append(f"{workload} trace={int(trace)}: metrics {sorted(set(emitted) ^ set(wanted))} "
                                f"or their units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: an op failed its checks")
        sabotaged = run_workload(workload, 1, 0, False, smoke=True, sabotage=True)
        if sabotaged["failed"] == 0:
            problems.append(f"{workload}: the output checks passed a run against sabotaged expectations")
    for problem in problems:
        print(f"smoke: {problem}")
    print(f"smoke: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of the benchmark")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relu_prism" / "__init__.py").is_file():
        print(f"error: no relu_prism package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
