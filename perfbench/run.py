"""Closed-loop benchmark of the clubcat command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a clubcat checkout.  One client sends the workload's
requests one at a time; each request is one ``clubcat`` invocation in a fresh
interpreter (``perfbench/child.py``), because a user pays interpreter start,
imports and cold caches on every invocation.  The first pass over the pool
is shuffled by the seed.  A run makes full passes over the pool until S
seconds have passed, so every request runs equally often.  Every report is
checked against ``perfbench/expected.json``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced pass.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import pool, tracing  # noqa: E402

EXPECTED_FILE = os.path.join(HERE, "expected.json")
STATE_DIR = os.path.join(ROOT, ".perfbench")
# No request starts after this many seconds, so that a run ends within
# 180 s even when the program is much slower than today.
HARD_STOP_S = 150.0
TAIL_BEYOND = 10
# Children may cache bytecode, as an installed clubcat has it cached, so that
# setup_s measures interpreter start and imports rather than compilation.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}

# Time metrics are CPU time at a reference machine speed.  On this kind of
# shared virtual machine, wall time of identical runs differs by up to 30%:
# the hypervisor steals time in bursts, and the speed of the CPU flips
# between two levels 1.6x apart, for every process at once, often within a
# second.  CPU time (user + system) leaves out stolen time.  For the speed,
# each child samples the CPU time per iteration of a fixed pure-Python loop
# before, during and after main (child.SpeedProbe), and a CPU time t is
# reported as t * mean(REFERENCE_LOOP_S / sample): CPU seconds on a machine
# where one iteration takes REFERENCE_LOOP_S, a typical sample on a 2-core
# Xeon at 2.0 GHz with Python 3.11.7.  The program is single-threaded and
# waits on nothing, so on a quiet machine its CPU time is its wall time.
# Wall times, unscaled, are printed beside and kept in the results file.
REFERENCE_LOOP_S = 1.8e-7

E2E_METRICS = ("latency_p50_s", "latency_tail_s", "wall_s", "peak_rss_mb",
               "setup_s")
UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "wall_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s", "fail_frac": "frac"}


def digest(stdout, out_bytes=b""):
    """The digest a request is checked against: its report bytes, then the
    bytes of the file it wrote, if any."""
    h = hashlib.sha256(stdout)
    h.update(out_bytes)
    return h.hexdigest()


def out_path(argv):
    """The file a request writes with ``-o``, or None."""
    return argv[argv.index("-o") + 1] if "-o" in argv else None


def spawn(argv, workdir, src, traced, stop_at):
    """Run one request and return what the benchmark measures of it."""
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    stdout_path = os.path.join(workdir, f".stdout-{tag}")
    stderr_path = os.path.join(workdir, f".stderr-{tag}")
    result_path = os.path.join(workdir, f".result-{tag}")
    out = out_path(argv)
    if out is not None and os.path.exists(os.path.join(workdir, out)):
        os.remove(os.path.join(workdir, out))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), src, result_path,
           "1" if traced else "0", "--", *argv]
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=so,
                                stderr=se)
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > stop_at:
            os.kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(0.002)
    reaped = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)

    with open(stdout_path, "rb") as handle:
        stdout = handle.read()
    with open(stderr_path, "rb") as handle:
        stderr = handle.read().decode("utf-8", "replace")
    out_bytes = b""
    if out is not None and os.path.exists(os.path.join(workdir, out)):
        with open(os.path.join(workdir, out), "rb") as handle:
            out_bytes = handle.read()
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    for path in (stdout_path, stderr_path, result_path):
        if os.path.exists(path):
            os.remove(path)

    run = {"exit": proc.returncode, "digest": digest(stdout, out_bytes),
           "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": timed_out,
           "stderr": stderr[-2000:], "report": stdout}
    if result is not None:
        speeds = result["speed_samples"]
        scale = statistics.fmean(REFERENCE_LOOP_S / s for s in speeds)
        main_cpu = (result["end_cpu"] - result["start_cpu"]
                    - result["probe_spent"])
        total_cpu = usage.ru_utime + usage.ru_stime - result["probe_cpu"]
        run["speed_samples"] = len(speeds)
        run["scale"] = scale
        run["main_s"] = result["end"] - result["start"]
        run["raw_setup_s"] = result["ready"] - spawned
        run["raw_latency_s"] = run["main_s"] - result["probe_spent"]
        run["raw_total_s"] = reaped - spawned - result["probe_cpu"]
        run["setup_s"] = result["ready_cpu"] * REFERENCE_LOOP_S / speeds[0]
        run["latency_s"] = main_cpu * scale
        run["total_s"] = total_cpu * scale
        run["crash"] = result["crash"]
        run["trace"] = result.get("trace")
    return run


def check(run, want):
    """Why a request's outcome is wrong, or None when it is right."""
    if run.get("timed_out"):
        return "timed out"
    if "latency_s" not in run:
        return f"no result from the child (exit {run['exit']})"
    if run.get("crash"):
        return "crashed: " + run["crash"].strip().splitlines()[-1]
    if run["exit"] != want["exit"]:
        return f"exit {run['exit']}, expected {want['exit']}"
    if run["digest"] != want["sha256"]:
        return "report digest differs from expected.json"
    return None


def tail(values, beyond=TAIL_BEYOND):
    """The highest nearest-rank percentile with at least ``beyond`` values
    above it: ``(value, percentile, count)``.  With ``beyond`` values or fewer
    there is no such percentile, and the maximum is returned as percentile
    100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(runs, prefix=""):
    """The end-to-end metrics of a run from its plain executions, which
    cover the pool the same number of times.

    Latency and wall time take each request's median over its executions,
    so every run measures the same fixed set of requests.  ``prefix="raw_"``
    gives them from the unscaled times.
    """
    latency, total = {}, {}
    for run in runs:
        if "latency_s" in run:
            latency.setdefault(run["request"], []).append(
                run[prefix + "latency_s"])
            total.setdefault(run["request"], []).append(
                run[prefix + "total_s"])
    if not latency:
        raise SystemExit("perfbench: no request produced a measurement")
    per_request = [statistics.median(v) for v in latency.values()]
    value, pct, n = tail(per_request)
    return {
        "latency_p50_s": statistics.median(per_request),
        "latency_tail_s": value,
        "latency_tail_pct": pct,
        "latency_requests": n,
        "wall_s": sum(statistics.median(v) for v in total.values()),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
        "setup_s": statistics.median(run[prefix + "setup_s"] for run in runs
                                     if "latency_s" in run),
    }


def resample_frac(reports):
    """Resampled monoidal samples over all samples drawn, from the reports."""
    done = resampled = 0
    for text in reports:
        try:
            checks = json.loads(text).get("checks", [])
        except ValueError:
            continue
        for check_ in checks:
            if check_["law"] == "rebracketing-and-unit-isomorphisms":
                done += check_["details"]["samples"]
                resampled += check_["details"]["resampled"]
    return resampled / (done + resampled) if done + resampled else 0.0


def per_layer(traced, plain_pairs):
    """The per-layer metrics of a traced pass.

    ``traced`` is a list of traced executions; ``plain_pairs`` a list of
    ``(plain, traced)`` executions of the same request, for the overhead.
    """
    summary = tracing.summarize(run["trace"] for run in traced
                                if run.get("trace"))
    functions = summary["functions"]
    metrics = {}
    for name in per_layer_names():
        parts = name.split(".")
        if name == "suites.monoidal.resample_frac":
            value = resample_frac(run["report"] for run in traced)
        elif name == "trace.overhead_frac":
            plain = sum(p["latency_s"] for p, _ in plain_pairs)
            value = (sum(t["latency_s"] for _, t in plain_pairs) / plain - 1
                     if plain else 0.0)
        elif name == "trace.coverage_frac":
            request_s = sum(run["main_s"] for run in traced)
            value = summary["top_level_s"] / request_s if request_s else 0.0
        elif len(parts) == 2:
            value = summary["modules"][parts[0]]
        else:
            fn = functions.get(".".join(parts[:2]))
            stat = parts[2]
            if fn is None:
                value = 0
            elif stat == "useful_frac":
                value = fn["returned"] / fn["calls"] if fn["calls"] else 0.0
            else:
                value = fn[stat]
        metrics[name] = value
    return metrics, summary


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def per_layer_names():
    return [m["name"] for m in benchmark_spec()["per_layer"]]


def machine_facts(seed):
    """Facts that tell one machine, and one moment on it, from another."""
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "git_commit": commit, "seed": seed,
            "loadavg_1m_start": os.getloadavg()[0]}


def load_expected(workload):
    """The committed expectations of the workload's pool, checked against it."""
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        expected = json.load(handle).get(workload, {})
    for rid, argv in pool.requests(workload):
        if rid not in expected or expected[rid]["argv"] != argv:
            raise SystemExit(f"perfbench: expected.json has no entry for "
                             f"{rid} {argv}; re-record it with "
                             f"perfbench/record.py")
    return expected


def fresh_workdir(workload):
    workdir = os.path.join(STATE_DIR, f"work-{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return workdir


def source_dir():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "clubcat", "cli.py")):
        raise SystemExit(f"perfbench: no clubcat sources under {src}; run "
                         f"from the root of a clubcat checkout")
    return src


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = source_dir()
    sys.path.insert(0, src)
    expected = load_expected(args.workload)
    facts = machine_facts(args.seed)
    workdir = fresh_workdir(args.workload)
    try:
        pool.prepare(args.workload, workdir)
        result = measure(args, src, workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_1m_end"] = os.getloadavg()[0]
    return report(args, facts, result)


def measure(args, src, workdir, expected):
    """Send the workload's requests and check each against ``expected``.

    Without tracing, a run makes full passes over the pool until ``seconds``
    have passed.  With tracing, it makes one pass; for the first half of
    ``seconds``, each request is also sent untraced just before its traced
    run, to measure the overhead.
    """
    pool_argv = dict(pool.requests(args.workload))
    began = time.perf_counter()
    hard_stop = began + HARD_STOP_S
    runs, traced, pairs, failures = [], [], [], []
    unsent = passes = 0

    def send(rid, trace):
        run = spawn(pool_argv[rid], workdir, src, trace, hard_stop + 20)
        run["request"] = rid
        why = check(run, expected[rid])
        if why is not None:
            failures.append({"request": rid, "traced": trace, "why": why,
                             "stderr": run["stderr"]})
        return run

    while not unsent and (passes == 0 or not args.trace
                          and time.perf_counter() - began < args.seconds):
        passes += 1
        order = pool.order(args.workload, args.seed, passes)
        order = order[len(order) - len(pool_argv):]
        for i, rid in enumerate(order):
            now = time.perf_counter()
            if now > hard_stop:
                unsent = len(order) - i
                failures.extend({"request": late, "traced": bool(args.trace),
                                 "why": "not sent: the run hit its time "
                                        "limit", "stderr": ""}
                                for late in order[i:])
                break
            if not args.trace:
                runs.append(send(rid, False))
                continue
            paired = now - began < args.seconds / 2
            plain = send(rid, False) if paired else None
            run = send(rid, True)
            traced.append(run)
            if plain is not None:
                runs.append(plain)
                if "latency_s" in plain and "latency_s" in run:
                    pairs.append((plain, run))
    return {"runs": runs, "traced": traced, "pairs": pairs,
            "failures": failures, "passes": passes,
            "attempted": len(runs) + len(traced) + unsent,
            "measured_s": time.perf_counter() - began}


def report(args, facts, result):
    failed = len(result["failures"])
    attempted = result["attempted"]
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "machine": facts,
              "passes": result["passes"], "measured_s": result["measured_s"],
              "attempted": attempted, "failed": failed,
              "failures": result["failures"][:20]}
    lines = []
    if args.trace:
        metrics, summary = per_layer(result["traced"], result["pairs"])
        record["functions"] = summary["functions"]
        record["modules"] = summary["modules"]
        spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        out = {name: {"value": value, "unit": spec[name]}
               for name, value in metrics.items()}
        total_self = sum(summary["modules"].values()) or 1.0
        for layer, own in sorted(summary["modules"].items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"{args.workload} self-time share {layer:<10} "
                         f"{own / total_self:7.1%}  ({own:.3f} s)")
    else:
        metrics = end_to_end(result["runs"])
        metrics["fail_frac"] = failed / attempted
        raw = end_to_end(result["runs"], "raw_")
        record["raw"] = {name: raw[name] for name in E2E_METRICS}
        record["requests"] = [
            {key: run.get(key) for key in (
                "request", "exit", "rss_mb", "raw_setup_s", "raw_latency_s",
                "raw_total_s", "speed_samples", "scale")}
            for run in result["runs"]]
        record["tail"] = {"percentile": metrics["latency_tail_pct"],
                          "requests": metrics["latency_requests"]}
        out = {name: {"value": metrics[name], "unit": UNITS[name]}
               for name in E2E_METRICS}
        lines.append(f"{args.workload} latency_tail_s is "
                     f"p{metrics['latency_tail_pct']:.1f} of "
                     f"{metrics['latency_requests']} requests")
        for name in E2E_METRICS + ("fail_frac",):
            line = f"{args.workload} {name} {metrics[name]:.6g} {UNITS[name]}"
            if UNITS[name] == "s":
                line += f" (wall, unscaled: {raw[name]:.6g} s)"
            lines.append(line)
    record["metrics"] = out
    for failure in result["failures"][:5]:
        lines.append(f"{args.workload} FAILED {failure['request']}"
                     f"{' (traced)' if failure['traced'] else ''}: "
                     f"{failure['why']}")
    lines.append("machine " + json.dumps(facts, sort_keys=True))

    results_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
