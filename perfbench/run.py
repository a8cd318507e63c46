"""Benchmark for biqknot: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload distinguish-random --seed 1 --seconds 15 --trace 0

Workloads: cli-cold, distinguish-random, solve-long (see README.md).  Each run attempts a fixed list of whole rounds of
operations made from --seed; --seconds sets how many rounds, never a
clock.  Every output is checked against reference arithmetic kept in
this directory.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones
from a separate traced run.  Exits 2 without a result when the tree
holds no biqknot sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import checks
import inputs
import reference as ref
import spans

WORKLOADS = ("cli-cold", "distinguish-random", "solve-long")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join("perfbench", "out")
SETUP_SAMPLES = 5          # fresh interpreters per in-process run; median reported
CLI_WARMUPS = 5            # discarded cli-cold invocations; median reported
RUN_BUDGET_S = 170         # every worker of a run ends within this, from the start


class WorkerFailed(Exception):
    """A worker process timed out or exited with an error."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(job: Dict, workdir: str, tag: str, deadline: float) -> Dict:
    """Run one worker process; on timeout stop it and every child it started."""
    job_path = os.path.join(workdir, f"{tag}-job.json")
    out_path = os.path.join(workdir, f"{tag}-result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen([sys.executable, WORKER, job_path, out_path], env=_env(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{tag} worker did not end within the run's "
                           f"{RUN_BUDGET_S} s") from None
    finally:
        if proc.poll() is None:     # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise WorkerFailed(f"{tag} worker exited {code}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(latencies: List[float], setup_s: float, rss_kb: int) -> Dict[str, Dict]:
    """Throughput counts only time inside operations, not the checks between them."""
    ms = [x * 1e3 for x in latencies]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "latency_ms.p90": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def _generate(workload: str, seed: int, seconds: int, workdir: str):
    rng = random.Random(seed)
    rounds = inputs.rounds_for(workload, seconds)
    if workload == "cli-cold":
        return inputs.cli_commands(rng, rounds, workdir)
    make = {"distinguish-random": inputs.distinguish_pairs,
            "solve-long": inputs.long_chains}[workload]
    return make(rng, rounds), {}


CHECKS = {"cli-cold": checks.cli_cold, "distinguish-random": checks.distinguish_random,
          "solve-long": checks.solve_long}
# what a worker sends for each op; the rest of an op is only for checking
SENT = {"cli-cold": ("argv",), "distinguish-random": ("d1", "d2"),
        "solve-long": ("text", "start")}


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: str, deadline: float):
    """Returns (ops, errors of failed ops, problems found, metrics)."""
    ops, files = _generate(workload, seed, seconds, workdir)
    try:
        return (ops, *_measure(workload, seed, ops, files, trace, workdir, deadline))
    except WorkerFailed as exc:
        # The outputs of a worker that did not finish are lost: every op counts as failed.
        return ops, [[i, str(exc)] for i in range(len(ops))], [str(exc)], {}


def _measure(workload, seed, ops, files, trace, workdir, deadline):
    sent = [{k: op[k] for k in SENT[workload]} for op in ops]
    problems: List[str] = []

    if trace:
        probe, probe_files = [], {}
        if workload != "cli-cold":
            probe, probe_files = inputs.cli_commands(random.Random(f"probe-{seed}"), 1, workdir)
        trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        res = _worker({"workload": workload, "mode": "run", "ops": sent,
                       "files": {**files, **probe_files},
                       "probe": [{"argv": p["argv"]} for p in probe],
                       "trace_path": trace_path, "run_id": f"{workload}-{seed}-{os.getpid()}"},
                      workdir, "traced", deadline)
        if checks.cli_failures(probe, res["probe"]):
            problems.append("a command of the traced CLI probe failed")
        problems += checks.cli_cold(probe, res["probe"])
        with open(trace_path, encoding="utf-8") as fh:
            metrics = spans.per_layer(json.load(fh))
    elif workload == "cli-cold":
        res = _worker({"workload": workload, "mode": "cli", "ops": sent, "files": files,
                       "warmups": CLI_WARMUPS}, workdir, "cli", deadline)
    else:
        # Extra set-up samples come before and after the run, so one slow
        # stretch on a shared host does not set the median.
        setup = [_worker({"workload": workload, "mode": "setup"}, workdir, f"setup{k}", deadline)
                 for k in range(SETUP_SAMPLES // 2)]
        res = _worker({"workload": workload, "mode": "run", "ops": sent}, workdir, "run", deadline)
        setup += [_worker({"workload": workload, "mode": "setup"}, workdir, f"setup{k}", deadline)
                  for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
        res["setup_s"] = statistics.median([r["setup_s"] for r in setup] + [res["setup_s"]])
    outputs = res["outputs"]
    errors = checks.cli_failures(ops, outputs) if workload == "cli-cold" else res["failed"]
    problems += CHECKS[workload](ops, outputs)
    if not trace:
        metrics = _end_to_end(res["latencies_s"], res["setup_s"], res["peak_rss_kb"])
    return errors, problems, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "biqknot", "__init__.py")):
        print("error: run from the root of a biqknot checkout (src/biqknot is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # SIGTERM unwinds like an exception, so workers and the work directory go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ref.self_check()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops, errors, problems, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, err in errors:
        print(f"failed op {i}: {err}", file=sys.stderr)
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
