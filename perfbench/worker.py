"""The process that does the work of one benchmark run.

Usage: python3 worker.py JOB.json RESULT.json

The job names a workload, its generated inputs and a mode:

- "run": import biqknot in this fresh interpreter, build the calibrated
  biquandle (its set-up time is reported), run the operations in order,
  timing each, and write the raw outputs for the parent to check.
  With a trace path, spans are recorded around the program's calls,
  after writing the job's input files for the in-process CLI probe.
- "setup": stop after set-up; one more set-up sample.
- "cli": be the single client of cli-cold.  Write the input files, make
  the discarded warm-up invocations, then start one
  ``python -m biqknot.cli`` child at a time.  This process imports
  nothing large, so the children's peak memory is their own.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

CLI_TIMEOUT_S = 60


def peak_rss_kb() -> int:
    """Peak resident memory of this process image (VmHWM), in KiB.

    ru_maxrss would also count the parent's pages copied at fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def write_files(files) -> None:
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _invoke(argv):
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "biqknot.cli", *argv],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, None
    return time.perf_counter() - t, {"code": proc.returncode, "stdout": proc.stdout}


def cli_client(job) -> dict:
    t = time.perf_counter()
    write_files(job["files"])
    t_files = time.perf_counter() - t
    warm = [_invoke(["group", "eval", "a"])[0] for _ in range(job["warmups"])]
    latencies, outputs = [], []
    for op in job["ops"]:
        dt, out = _invoke(op["argv"])
        latencies.append(dt)
        outputs.append(out)
    return {"setup_s": t_files + statistics.median(warm), "latencies_s": latencies,
            "outputs": outputs, "failed": [],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def _idx(g) -> int:
    return g.k * 8 + g.l


def _side(r) -> dict:
    return {"count": r.count, "ends": sorted(_idx(g) for g in r.end_colors),
            "colorings": [[_idx(g) for g in col] for col in r.colorings]}


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _prepare(workload, ops, bk, group, bq):
    """Return (one callable per op, converter of its output to JSON data)."""
    if workload == "distinguish-random":
        start = group.generator_a
        pairs = [(bk.parse_diagram(o["d1"]), bk.parse_diagram(o["d2"])) for o in ops]
        return ([lambda p=p: bk.distinguish(p[0], p[1], bq, start) for p in pairs],
                lambda r: {"verdict": r.verdict, "sides": [_side(r.first), _side(r.second)]})
    if workload == "solve-long":
        def op(o):
            start = bk.GroupElement(*divmod(o["start"], 8))
            return bk.solve(bk.parse_diagram(o["text"]), bq, start)
        return [lambda o=o: op(o) for o in ops], _side
    if workload == "cli-cold":
        import biqknot.cli as cli
        return [lambda o=o: _run_cli(cli.main, o["argv"]) for o in ops], lambda r: r
    raise ValueError(f"unknown workload {workload!r}")


def in_process(job) -> dict:
    write_files(job.get("files", {}))
    tracer = None
    if job.get("trace_path"):
        import spans
        tracer = spans.Tracer(job["run_id"])

    t0 = time.perf_counter()
    if tracer:
        with tracer.span(spans.IMPORT):
            import biqknot as bk
        import biqknot.cli  # noqa: F401  (loaded before wrapping, so its names are traced)
        tracer.install()
    else:
        import biqknot as bk
    group = bk.build_group(bk.calibrate_convention().convention)
    bq = bk.calibrated_biquandle(group)
    result = {"setup_s": time.perf_counter() - t0}
    if job["mode"] == "setup":
        return result

    calls, convert = _prepare(job["workload"], job["ops"], bk, group, bq)
    outputs, latencies, failed = [], [], []
    for i, call in enumerate(calls):
        t = time.perf_counter()
        dt = text = None
        try:
            out = call()
            dt = time.perf_counter() - t
            # Kept as text, so results held for checking neither grow the
            # collector's work nor keep the program's objects alive.
            text = json.dumps(convert(out))
            del out
        except Exception as exc:  # an operation that fails is counted, not fatal
            failed.append([i, repr(exc)[:300]])
        latencies.append(time.perf_counter() - t if dt is None else dt)
        outputs.append(text)
    result.update(latencies_s=latencies, failed=failed, peak_rss_kb=peak_rss_kb(),
                  outputs=[None if o is None else json.loads(o) for o in outputs])
    if tracer:
        import biqknot.cli as cli
        result["probe"] = [_run_cli(cli.main, o["argv"]) for o in job["probe"]]
        tracer.dump(job["trace_path"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = cli_client(job) if job["mode"] == "cli" else in_process(job)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
