"""Cold-cache query benchmark for skeinlab.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-answers

Run from the root of a source checkout; the benchmark imports skeinlab from
``src/``. Each workload is a closed loop with one client: its queries run
back to back in one fresh, single-threaded Python process per pass, with an
empty action cache. A run repeats passes for at most ``--seconds`` and reports
medians over them. The seed permutes the query order, which changes which
query pays for the cold action columns; the total work of a pass does not
depend on it.

Workloads (see ``workloads.py``). There are two, each the union of two
query families, and a pass of either takes about 10 s. On shared two-CPU
machines the speed of a CPU drifts by tens of percent over seconds to
minutes, so a run measures for a minute and reports the median of its
five or six passes; with 22 runs per workload in an hour, that fits two
workloads, not four.

- lens: ``lens_module`` with default windows, over Q(q) for L(3,1)
  (fraction-free Laurent elimination in ``heegaard``, then cold diagram
  columns), and over Q(zeta_n) for S^3 with n in {2,3,6} and L(3,1) at
  zeta:5 (elimination by division in Q(zeta_5), on the (3,1) columns that
  the generic query holds in memory, or computes after it).
- algebra: ``is_central(thread_torus(curve), 6)`` and an unthreaded control
  for n in {1,3,5,6,10,15} and every label with max(|p|,|q|) <= 2 (288
  short queries: product-to-sum multiplication and cyclotomic arithmetic),
  and ``char_ring`` for Z/p (p = 2..8), <a,b | abab = a^3, a^3 = b^r>
  (r = 2, 5, 6; r = 5 is the Poincare sphere, r = 6 is positive-dimensional)
  and <a,b | (ab)^3 = a^3, a^3 = b^2> (Groebner bases and Artinian
  decomposition). It never touches Laurent polynomials, diagrams or
  ``heegaard``; the lens workload never touches ``torus_mul`` or Groebner.

With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``, measured without instrumentation. With ``--trace 1`` it
reports the per-layer metrics: self times and counts from a pass with spans
around each layer's entry points, operation counts from two passes with
counters on the multiplications (which must agree exactly), and the tracing
overhead. Every answer is checked against an independent oracle and against
``answers.json``, recorded from a trusted commit, outside the timed region.

Before and after a run the benchmark hashes ``src/``, ``tests/``,
``perfbench/``, ``.skeinlab_cache/`` and the top-level files; any change
makes the run incorrect. Run output (a summary and the last span pass's
spans) goes to ``.perfbench/`` in the checkout.
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
import tempfile
import time
from importlib import metadata

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
ANSWERS = os.path.join(HERE, "answers.json")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170  # a run, including every pass, ends within this many seconds
SETUP_SAMPLES = 5
# Query latency is reported for the query families with enough queries:
# median for both, and a tail only for the centrality checks. These lines,
# like fail_frac, are printed but are not in the result line, because they
# are not defined on every workload (failures are in "failed" there).
P50_KINDS = {"central": "center", "charring": "charring"}
TAIL_KINDS = ("central",)
WATCHED = ("src", "tests", "perfbench", ".skeinlab_cache")
SKIPPED_DIRS = {"__pycache__"}


class HarnessError(Exception):
    """A pass failed, or the checkout cannot be benchmarked."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def snapshot():
    """sha256 of every watched file, so a run can prove it changed nothing."""
    digests = {}

    def add(path):
        with open(path, "rb") as fh:
            digests[os.path.relpath(path, ROOT)] = hashlib.sha256(fh.read()).hexdigest()

    for name in sorted(os.listdir(ROOT)):
        path = os.path.join(ROOT, name)
        if os.path.isfile(path) and not os.path.islink(path):
            add(path)
    for top in WATCHED:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
            for name in sorted(files):
                add(os.path.join(dirpath, name))
    return digests


def tree_changes(before, after):
    """Watched files changed or removed, and new files under watched dirs.

    New top-level files are not counted: whoever runs the benchmark may
    keep its own logs in the checkout's root.
    """
    changed = [p for p, h in before.items() if after.get(p) != h]
    added = [p for p in after if p not in before and os.sep in p]
    return sorted(changed + added)


def run_pass(mode, queries, tmp, deadline, spans_out=None):
    """Spawn one worker; returns its output plus ``setup_s``, or raises.

    The worker's string hashing is fixed: set and dict order steers the
    Groebner pair order, so with a random hash seed the work done, and with
    it the time and the operation counts, would change from pass to pass.
    """
    job = json.dumps({"mode": mode, "queries": queries, "tmp": tmp, "spans_out": spans_out})
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SKEINLAB_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(job, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} pass did not finish within the run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"{mode} pass exited with {proc.returncode}: {stderr.strip()[-800:]}")
    out = json.loads(stdout)
    out["setup_s"] = out["first_query_at"] - started
    return out


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * pct // 100) - 1))
    return sorted_values[int(k)]


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    values = sorted(latencies)
    for pct in (99.9, 99, 98, 95, 90, 80, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, percentile(values, pct)
    return None


def execute(workload, seed, seconds, trace, queries, recorded):
    """Run passes for ``seconds``, check every answer, and summarise."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    spans_out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = []
    notes = []
    try:
        start = time.monotonic()
        schedule = ["plain", "spans", "counts", "counts"] if trace else ["plain"]
        while True:
            t = time.monotonic()
            for mode in schedule:
                passes.append((mode, run_pass(mode, queries, tmp, deadline, spans_out)))
            per_pass = (time.monotonic() - t) / len(schedule)
            schedule = ["plain", "spans"] if trace else ["plain"]
            # start another round only if it should end within ``seconds``,
            # so that every run ends in time for the next, whatever the
            # length of a pass
            if time.monotonic() - start + per_pass * len(schedule) > seconds:
                break
        setups = [p["setup_s"] for _, p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass("setup", queries, tmp, deadline)["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = failed = 0
    failures = []
    latencies = {q["id"]: [] for q in queries}
    for mode, p in passes:
        for query, answer, error, lat in zip(queries, p["answers"], p["errors"], p["latency_s"]):
            attempted += 1
            if error is None:
                try:
                    error = wl.check_answer(query, answer, recorded)
                except (KeyError, TypeError, AttributeError) as exc:
                    error = f"malformed answer: {exc!r}"
            if error is not None:
                failed += 1
                failures.append((query["id"], error.strip().splitlines()[-1]))
            if mode == "plain":
                latencies[query["id"]].append(lat)

    def of(mode, key):
        return [p[key] for m, p in passes if m == mode]

    values = {
        "wall_s": statistics.median(of("plain", "wall_s")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(of("plain", "peak_rss_mb")),
    }
    latency_lines = []
    for kind, family in P50_KINDS.items():
        sample = [x for q in queries if q["kind"] == kind for x in latencies[q["id"]]]
        if not sample:
            continue
        latency_lines.append(("query_p50_s", statistics.median(sample), f"({family} queries, n={len(sample)})"))
        found = tail(sample) if kind in TAIL_KINDS else None
        if found:
            latency_lines.append(("query_tail_s", found[1], f"({family} queries, p{found[0]:g}, n={len(sample)})"))
    if trace:
        counts = of("counts", "layers")
        if any(c != counts[0] for c in counts):
            notes.append("operation counts differ between the two counting passes")
        spans = of("spans", "layers")
        for key in spans[0]:
            values[key] = statistics.median(s[key] for s in spans)
        values.update(counts[0])
        values["trace.overhead_s"] = statistics.median(of("spans", "wall_s")) - values["wall_s"]
    return {
        "values": values,
        "latency_lines": latency_lines,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "notes": notes,
        "passes": [(m, p["wall_s"]) for m, p in passes],
        "pass_latency_s": [(m, p["latency_s"]) for m, p in passes],
        "query_latency_s": {k: statistics.median(v) for k, v in latencies.items() if v},
    }


def metadata_for(workload, seed):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "not installed"
    src_lines = 0
    src_hash = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
        for name in sorted(files):
            with open(os.path.join(dirpath, name), "rb") as fh:
                data = fh.read()
            src_hash.update(name.encode() + b"\0" + data)
            if name.endswith(".py"):
                src_lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "sympy": sympy_version,
    }


def benchmark(workload, seed, seconds, trace, queries=None, recorded=None):
    """One run of the command: returns (report lines, result object)."""
    spec = load_spec()
    if queries is None:
        queries = wl.generate(workload, seed)
    if recorded is None:
        with open(ANSWERS) as fh:
            recorded = json.load(fh)
    before = snapshot()
    res = execute(workload, seed, seconds, trace, queries, recorded)
    changes = tree_changes(before, snapshot())
    if changes:
        res["notes"].append("the run changed files in the checkout: " + ", ".join(changes[:10]))
    values = res["values"]
    meta = metadata_for(workload, seed)
    meta["passes"] = res["passes"]
    meta["lens_query_latency_s"] = {
        q["id"]: res["query_latency_s"][q["id"]] for q in queries if q["kind"] == "lens"
    }

    def line(name, value, unit, extra=""):
        return f"{name:<34} {value:<14.6g} {unit} {extra}".rstrip()

    lines = [f"workload {workload}, seed {seed}, {len(res['passes'])} passes of {len(queries)} queries"]
    lines += [line(m["name"], values[m["name"]], m["unit"]) for m in spec["end_to_end"]]
    lines += [line(name, value, "s", extra) for name, value, extra in res["latency_lines"]]
    lines.append(line("fail_frac", res["failed"] / res["attempted"], "ratio",
                      f"({res['failed']}/{res['attempted']})"))
    if trace:
        lines += [line(m["name"], values[m["name"]], m["unit"]) for m in spec["per_layer"]]
    for qid, reason in res["failures"][:20]:
        lines.append(f"FAILED {qid}: {reason}")
    lines += [f"NOTE {n}" for n in res["notes"]]
    lines.append("meta " + json.dumps(meta, sort_keys=True))

    group = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": res["failed"] == 0 and not res["notes"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }
    summary = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(summary, "w") as fh:
        json.dump({"meta": meta, "values": values, "failures": res["failures"],
                   "query_ids": [q["id"] for q in queries], "pass_latency_s": res["pass_latency_s"],
                   "notes": res["notes"], "result": result}, fh, indent=1, sort_keys=True)
    return lines, result


def self_check():
    """Tiny workloads: every metric prints with its unit, and a corrupted
    recorded answer is counted as a failure rather than a crash."""
    spec = load_spec()
    with open(ANSWERS) as fh:
        recorded = json.load(fh)
    problems = []
    for workload in wl.WORKLOADS:
        queries = wl.generate(workload, 1, tiny=True)
        kinds = {q["kind"] for q in queries}
        for trace in (0, 1):
            lines, result = benchmark(workload, 1, 0, trace, queries, recorded)
            group = spec["per_layer"] if trace else spec["end_to_end"]
            expected = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [("fail_frac", "ratio")]
            expected += [("query_p50_s", "s") for k in P50_KINDS if k in kinds]
            expected += [("query_tail_s", "s") for k in TAIL_KINDS if k in kinds]
            if trace:
                expected += [(m["name"], m["unit"]) for m in spec["per_layer"]]
            for name, unit in expected:
                if not any(ln.split()[:1] == [name] and ln.split()[2] == unit for ln in lines):
                    problems.append(f"{workload} trace {trace}: {name} not printed with unit {unit}")
            for m in group:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace {trace}: {m['name']} missing from the result")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: tiny run failed:\n" + "\n".join(lines))
        corrupted = dict(recorded)
        victim = queries[0]["id"]
        corrupted[victim] = {"corrupted": True}
        lines, result = benchmark(workload, 1, 0, 0, queries, corrupted)
        if result["failed"] != 1 or result["correct"]:
            problems.append(f"{workload}: corrupted answer for {victim} not counted as one failure")
    for p in problems:
        print("PROBLEM", p)
    print("self-check " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def record_answers():
    """Write answers.json from the current source; refuses answers that fail an oracle."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    answers = {}
    try:
        for workload in wl.WORKLOADS:
            queries = wl.generate(workload, 0)
            out = run_pass("plain", queries, tmp, time.monotonic() + 3600)
            for query, answer, error in zip(queries, out["answers"], out["errors"]):
                error = error or wl.oracle_error(query, answer)
                if error:
                    raise HarnessError(f"{query['id']}: {error}")
                answers[query["id"]] = answer
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(ANSWERS, "w") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(answers)} answers")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-answers", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped and
    # the temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "skeinlab", "__init__.py")):
        print("perfbench: no skeinlab source under src/; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.record_answers:
            return record_answers()
        if args.workload is None:
            ap.error("--workload is required")
        lines, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
