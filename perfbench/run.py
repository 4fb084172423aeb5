"""Benchmark of circint: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload census|oracle-exact|cli-session|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; circint is imported from its
src/ directory. Each workload runs in a fresh interpreter. With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a separate traced run. The lines before it give the seed and
the same figures for reading. Exit code 0 when every output was correct,
1 when one was wrong or a workload did not finish, 2 on a usage error or
when no circint source is found.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
PROBES = 7
DEADLINE_S = 170

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, child_env  # noqa: E402


def probe_setup(fields: list[str]) -> tuple[float, float]:
    """Median time from interpreter start to circint imported and the
    workload's fields parsed, and median import time in ms."""
    setups, imports = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *fields], env=child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        doc = json.loads(line)
        if not Path(doc["file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"circint imported from {doc['file']}, not from {ROOT / 'src'}")
        imports.append(doc["import_ms"])
    return statistics.median(setups), statistics.median(imports)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, started: float):
    setup_s, import_ms = probe_setup(WORKLOADS[name].fields)
    trace_dir = RUNS / f"trace-{name}-seed{seed}"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(seconds),
           str(trace_dir) if trace else "-"]
    done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, check=False,
                          timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"workload {name} exited with {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        measured = dict(raw["layers"], **{"cli.import_ms": import_ms})
        declared = spec["per_layer"]
    else:
        measured = dict(raw, setup_s=setup_s)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    result = {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(raw, setup_s=setup_s, import_ms=import_ms, seed=seed, seconds=seconds)) + "\n")
    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"attempted={raw['attempted']} failed={raw['failed']} completed={raw['completed']} "
          f"busy_s={raw['busy_s']:.2f} correct={str(raw['correct']).lower()}")
    for metric_name, metric in metrics.items():
        print(f"#   {metric_name:40s} {metric['value']:14.4f} {metric['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["census", "oracle-exact", "cli-session", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "circint" / "__init__.py").is_file():
        print(f"no circint source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ["census", "oracle-exact", "cli-session"] if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, time.perf_counter())
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
