"""valq benchmark: three named workloads, timed end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

Run it from the root of a checkout; ``src`` is put on the path of every
``valq`` process, nothing is installed.  Each pass is one fresh process
running one workload, one at a time.  ``--seed`` becomes the program's
``--rng-seed``.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-module metrics and ``trace.overhead_s``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

import argparse
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PRIMES = "2,3,5,7,11,13,17"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 160
# Each child moves to the next allowed CPU every TICK_S.  On a shared host
# each CPU has its own phases of load from other tenants, which slow every
# instruction by up to 1.7x for seconds to minutes.  At each tick the
# parent also runs CALIBRATION_ROUNDS of a fixed pure-Python loop on the
# CPU the child is on and takes the loop's thread CPU time; the child's
# CPU time is scaled by the speed those samples show (see ``scaled``).
TICK_S = 0.25
CALIBRATION_ROUNDS = 50000
# The loop's CPU time on the reference CPU that scaled times refer to.
REFERENCE_S = 0.01
CPUS = sorted(os.sched_getaffinity(0))
_START_CPU = itertools.count()

G2 = ((0, 1), (-3, 0))
WILD3 = ((0, 2, 2), (-1, 0, 1), (-1, -1, 0))
with open(BENCH / "f4.json", encoding="utf-8") as _handle:
    F4 = tuple(tuple(row) for row in json.load(_handle)["B"])


# --max-depth 16 lies beyond the deepest seed of G2 (4) and F4 (7), so
# those walks close and every row reads "exhaustive".
WORKLOADS = {
    "g2-verify-all": {
        "command": ["verify-all"],
        "input": ["--type", "G2"],
        "primes": PRIMES,
        "max_depth": 16,
        "b": G2,
        "finite": True,
    },
    "f4-verify-all": {
        "command": ["verify-all"],
        "input": ["--matrix", "bench/f4.json"],
        "primes": PRIMES,
        "max_depth": 16,
        "b": F4,
        "finite": True,
    },
    "wild3-quantum-walk": {
        "command": ["verify", "characters"],
        "input": ["--type", "WILD3"],
        "primes": "2,3,5,7,11",
        "max_depth": 4,
        "b": WILD3,
        "finite": False,
    },
}

ITEM_RE = re.compile(r"(\d+) (?:variables|characters|monomials|seeds)\b")


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _calibration_loop():
    table, total = {}, 0
    for i in range(CALIBRATION_ROUNDS):
        total = (total * 31 + i) % 1000003
        table[i & 255] = total
    return total


def _follow(pid, first, done, samples):
    """Until ``done`` is set or the child is gone: pin the child to the
    next allowed CPU, pin this thread to the same CPU and append the
    calibration loop's thread CPU time to ``samples``.  Takes at least one
    sample."""
    for i in itertools.count(first):
        cpu = {CPUS[i % len(CPUS)]}
        try:
            os.sched_setaffinity(pid, cpu)
            os.sched_setaffinity(0, cpu)
            running = True
        except OSError:
            running = False
        began = time.thread_time()
        _calibration_loop()
        samples.append(time.thread_time() - began)
        if not running or done.wait(TICK_S):
            return


def scaled(cpu_s, samples):
    """CPU seconds on the reference CPU: ``cpu_s`` times the mean speed,
    relative to the reference, of the calibration samples taken while the
    process ran.  The samples are evenly spaced in wall time, as is the
    child's CPU time, so the mean of the speeds weights each stretch by
    the work done in it."""
    return cpu_s * statistics.fmean(REFERENCE_S / t for t in samples)


def spawn(args):
    """Run ``python3 args`` from the checkout root; returns stdout, exit
    code, start and end times (CLOCK_MONOTONIC), the child's rusage and
    the calibration samples taken on its CPU while it ran."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable] + args, cwd=ROOT, env=_env(), stdout=subprocess.PIPE
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    done = threading.Event()
    samples = []
    follower = threading.Thread(
        target=_follow, args=(proc.pid, next(_START_CPU), done, samples)
    )
    follower.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        done.set()
        follower.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, start, time.monotonic(), usage, samples


def valq_args(spec, seed):
    return spec["command"] + spec["input"] + [
        "--primes", spec["primes"],
        "--rng-seed", str(seed),
        "--max-depth", str(spec["max_depth"]),
    ]


def parse_rows(text):
    """(check, status, scope, detail) per report row."""
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("note:"):
            continue
        parts = line.split(None, 4)
        parts += [""] * (5 - len(parts))
        rows.append((parts[0], parts[2], parts[3], parts[4]))
    return rows


def _row_numbers(rows, check, pattern):
    """The integers that pattern captures in the detail of a check's row."""
    for name, _, _, detail in rows:
        match = re.search(pattern, detail) if name == check else None
        if match:
            return [int(x) for x in match.groups(default="0")]
    return None


def oracle_facts(spec):
    """Untimed: what the independent oracles expect of this workload,
    checked against one ``valq seeds --json`` walk at the same depth."""
    b = spec["b"]
    n = len(b)
    args = ["-m", "valq.cli", "seeds"] + spec["input"] + [
        "--max-depth", str(spec["max_depth"]), "--json",
    ]
    out, rc, _, _, _, _ = spawn(args)
    doc = json.loads(out) if rc == 0 else {"seeds": [], "count": -1, "truncated": True}
    variables = oracles.seed_variables(doc, n)
    if spec["finite"]:
        roots = oracles.positive_roots(b)
        dvecs = {oracles.denominator_vector(t, n) for t in variables.values()}
        catalan = oracles.seed_count(b)
        return {
            "roots": len(roots),
            "roots_ok": dvecs == roots and len(variables) == len(roots),
            "seeds": catalan,
            "seeds_ok": doc["count"] == catalan and not doc["truncated"],
        }
    return {
        "distinct": len(variables),
        "positive": rc == 0
        and all(c > 0 for terms in variables.values() for c in terms.values()),
    }


def oracle_checks(spec, facts, rows):
    """Name -> passed, for the oracle checks of one pass's rows."""
    if spec["finite"]:
        dens = _row_numbers(rows, "denominators", r"(\d+) variables checked(?:, (\d+) skipped)?")
        basis = _row_numbers(rows, "d-basis", r"in all (\d+) seeds")
        return {
            "roots": facts["roots_ok"] and dens is not None and sum(dens) == facts["roots"],
            "seeds": facts["seeds_ok"] and basis == [facts["seeds"]],
        }
    chars = _row_numbers(rows, "characters", r"(\d+) variables matched(?:, (\d+) skipped)?")
    return {
        "positivity": facts["positive"],
        "count": chars is not None and sum(chars) == facts["distinct"],
    }


def run_pass(spec, seed, facts, mode):
    """One fresh process running the workload; returns its measurements
    and its operation accounting."""
    out, rc, start, end, usage, samples = spawn(
        [str(BENCH / "child.py"), mode] + valq_args(spec, seed)
    )
    try:
        doc = json.loads(out)
    except ValueError:
        doc = {"rc": None, "stdout": "", "error": "child exited %s without a result" % rc}
    rows = parse_rows(doc["stdout"])
    checks = oracle_checks(spec, facts, rows)
    expected_rows = len(tracer.CHECKS) if spec["command"] == ["verify-all"] else 1
    attempted = max(len(rows), expected_rows) + len(checks)
    if doc["error"] or doc["rc"] not in (0, 1) or len(rows) < expected_rows:
        failed = attempted
        if doc["error"]:
            sys.stderr.write(doc["error"])
    else:
        failed = sum(row[1] == "FAIL" for row in rows) + sum(not ok for ok in checks.values())
        if doc["rc"] == 1 and not any(row[1] == "FAIL" for row in rows):
            failed += 1
    return {
        "run_s": scaled(doc.get("cpu_s", usage.ru_utime + usage.ru_stime), samples),
        "run_wall_s": end - doc.get("t_dispatch", start),
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "items": sum(int(x) for row in rows for x in ITEM_RE.findall(row[3])),
        "rows": rows,
        "attempted": attempted,
        "failed": failed,
        "trace": doc.get("trace"),
    }


def measure_setup(spec, seed):
    """Median scaled CPU time of fresh processes that import valq.cli,
    parse the arguments and build the exchange data.  The first, which
    may compile bytecode, is not counted.  Also says whether all exited 0."""
    times, all_ok = [], True
    for _ in range(SETUP_REPEATS + 1):
        _, rc, _, _, usage, samples = spawn(
            [str(BENCH / "child.py"), "setup"] + valq_args(spec, seed)
        )
        all_ok = all_ok and rc == 0
        times.append(scaled(usage.ru_utime + usage.ru_stime, samples))
    return statistics.median(times[1:]), all_ok


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def run_untraced(spec, seed, seconds, facts):
    setup_s, setup_ok = measure_setup(spec, seed)
    passes = []
    began = time.monotonic()
    while True:
        passes.append(run_pass(spec, seed, facts, "pass"))
        p = passes[-1]
        print("pass %d: run_s %.4f s (wall %.4f s), peak_rss_mb %.2f MB, items_checked %d, failed %d of %d"
              % (len(passes), p["run_s"], p["run_wall_s"], p["peak_rss_mb"], p["items"], p["failed"], p["attempted"]))
        if time.monotonic() - began + p["wall_s"] > seconds:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if not setup_ok:
        failed = attempted
    metrics = {
        "run_s": _metric(statistics.median(p["run_s"] for p in passes), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "items_checked": _metric(statistics.median_low(p["items"] for p in passes), "count"),
    }
    return attempted, failed, metrics


def run_traced(spec, seed, seconds, facts):
    plain, traced = [], []
    attempted = failed = 0
    absent = set()
    began = time.monotonic()
    while True:
        round_start = time.monotonic()
        plain.append(run_pass(spec, seed, facts, "pass"))
        traced.append(run_pass(spec, seed, facts, "trace"))
        rows_match = plain[-1]["rows"] == traced[-1]["rows"] and traced[-1]["trace"] is not None
        attempted += plain[-1]["attempted"] + traced[-1]["attempted"] + 1
        failed += plain[-1]["failed"] + traced[-1]["failed"] + (not rows_match)
        if traced[-1]["trace"]:
            absent.update(traced[-1]["trace"]["absent"])
        print("round %d: run_s %.4f s untraced, %.4f s traced, rows match: %s"
              % (len(plain), plain[-1]["run_s"], traced[-1]["run_s"], rows_match))
        now = time.monotonic()
        if now - began + (now - round_start) > seconds:
            break
    per_pass = [
        tracer.layer_metrics(p["trace"]["records"]) for p in traced if p["trace"]
    ] or [tracer.layer_metrics({})]
    metrics = {
        name: _metric(statistics.median(values[name] for values in per_pass), _unit(name))
        for name in per_pass[0]
    }
    overhead = statistics.mean(p["run_s"] for p in traced) - statistics.mean(
        p["run_s"] for p in plain
    )
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    if absent:
        print("absent: %s" % ", ".join(sorted(absent)))
    return attempted, failed, metrics


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    facts = oracle_facts(spec)
    runner = run_traced if trace else run_untraced
    attempted, failed, metrics = runner(spec, seed, seconds, facts)
    for metric, entry in metrics.items():
        print("%s %s: %r %s" % (name, metric, entry["value"], entry["unit"]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "valq" / "cli.py").is_file():
        print("error: no valq sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
