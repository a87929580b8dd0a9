"""stressdraw benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Each run:

1. sets up: generates the workload's graphs from the seed in a child
   process (import, generate, write JSON), three times, and reports the
   median wall time, less the time the child spent screening inputs and
   scaled to reference speed (see Reference), as `setup_s`. The three sets
   of files must be equal;
2. runs the census probes once, untimed (operations known to fail at some
   inputs, recorded by kind, family and error);
3. with --trace 0: after one untimed warm-up pass (in-process workloads
   only), runs whole passes over the workload's operations until S seconds
   have passed and at least MIN_OPS operations are done, checking every
   output between operations, and prints the end-to-end metrics. An
   operation that raises counts as failed. Operation times are scaled by
   the machine's speed during the run, gauged by a fixed reference task
   timed between operations (see Reference);
   with --trace 1: runs one pass in which each operation runs once
   untraced and once with every public function of the package wrapped in
   spans, then the census probes traced, and prints the per-layer metrics
   and the tracing overhead.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`. `correct` is false when an output
check fails or when more nested-family census probes fail than at the seed
commit. A results file with provenance, the input census, per-operation
times and the failure census goes to .bench_results/. The exit code is 1
when `correct` is false, 2 when the checkout holds no source to benchmark,
3 when the benchmark or the program raised something other than a
StressDrawError.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)  # before numpy loads in this process or a child

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("draw-large", "sweep-mid", "small-batch")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 90
# the tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
# a timed phase runs at least this many operations, so that the tail
# percentile is never below the median
MIN_OPS = 2 * TAIL_BEYOND + 1
# nested-family census at the seed commit, failures by error; the family
# does not depend on the seed
EXPECTED_NESTED_FAILURES = {"DegeneratePosition": 98, "ZeroLengthEdge": 66}
# end-to-end metrics that are printed but not bounded in BENCHMARK.json: at
# the seed commit fail_share is 0 and ratio_gmean differs between seeds far
# beyond any bound. `--all-metrics` adds them to the result line.
UNBOUNDED = [{"name": "fail_share", "unit": "share"}, {"name": "ratio_gmean", "unit": "ratio"}]
EXIT_CRASH = 3
# the machine-speed reference (see Reference) runs at most this often, and
# operation times are scaled to a machine on which it takes REF_NOMINAL_S
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.010
# reference samples taken around each set-up repeat
SETUP_REF_SAMPLES = 3


class ChildTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise ChildTimeout


def run_child(argv: list[str], log_stem: str) -> tuple[int, str, float, int]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS KB).

    Output goes through files so the child can be reaped with wait4, which
    returns that child's own resource usage."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except ChildTimeout:
        proc.kill()
        _pid, _status, usage = os.wait4(proc.pid, 0)
        code = -signal.SIGKILL
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -1
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = code
    wall = time.perf_counter() - start
    with open(log_stem + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return code, stdout, wall, usage.ru_maxrss


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, work: str, repeats: int, span_file: str | None,
           ref: "Reference | None" = None):
    """Generate the inputs `repeats` times; returns (wall times, input dir,
    manifest). Every repeat must write byte-identical files. With `ref`, the
    machine-speed reference is timed before each repeat and after the last."""
    times, contents = [], []
    for rep in range(repeats):
        if ref is not None:
            for _ in range(SETUP_REF_SAMPLES):
                ref.time()
        out_dir = os.path.join(work, f"inputs{rep}")
        argv = [sys.executable, os.path.join(BENCH, "inputs.py"), workload, str(seed), out_dir]
        if span_file:
            argv.append(span_file)
        code, out, wall, _rss = run_child(argv, os.path.join(work, f"setup{rep}"))
        if code != 0:
            with open(os.path.join(work, f"setup{rep}.err"), encoding="utf-8") as fh:
                raise RuntimeError(f"set-up exited {code}: {fh.read()[-2000:]}")
        # the input screen and the census inputs are not the workload's set-up
        times.append(wall - float(out.strip().splitlines()[-1].split("=", 1)[1]))
        files = sorted(os.listdir(out_dir))
        contents.append({f: open(os.path.join(out_dir, f), "rb").read() for f in files})
    if ref is not None:
        for _ in range(SETUP_REF_SAMPLES):
            ref.time()
    if any(c != contents[0] for c in contents):
        raise RuntimeError("set-up repeats wrote different inputs for one seed")
    input_dir = os.path.join(work, "inputs0")
    with open(os.path.join(input_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return times, input_dir, manifest


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks operations for one workload; keeps the tallies."""

    def __init__(self, workload: str, input_dir: str, manifest: list[dict], work: str):
        self.input_dir = input_dir
        self.work = work
        self.info = {g["name"]: g for g in manifest}
        self.graphs: dict[str, check.Graph] = {}
        for g in manifest:
            with open(wl.graph_path(input_dir, g["name"]), encoding="utf-8") as fh:
                self.graphs[g["name"]] = check.Graph(json.load(fh))
        self.inprocess = workload != "draw-large"
        self.sd = None
        self.embs: dict = {}
        self.rec: tracer.Recorder | None = None
        self.cli_spans: list[list] = []
        self.cli_import_s = 0.0
        self.peak_child_kb = 0
        self.check_stats: dict = {}

    def load_library(self, names: list[str]) -> None:
        """Import the package and load the named graphs through it."""
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import stressdraw

        if not os.path.abspath(stressdraw.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"imported stressdraw from {stressdraw.__file__}, not {SRC}")
        self.sd = stressdraw
        for name in names:
            self.embs[name] = stressdraw.load_graph(wl.graph_path(self.input_dir, name))

    def run(self, op: wl.Op, *, probe: bool = False, label: str = "") -> dict:
        """Run, time and check one operation. The timer covers only the
        call into the program; loading results and checking them is outside."""
        g = self.graphs[op.graph]
        error, products, problems = None, [], []
        if self.inprocess or probe:
            emb = self.embs[op.graph]
            if self.rec is not None:
                self.rec.op = f"{op.graph}:{op.kind}{label}"
            start = time.perf_counter()
            try:
                raw = wl.run_library(self.sd, op, emb)
            except self.sd.StressDrawError as exc:
                seconds = time.perf_counter() - start
                error = type(exc).__name__
            else:
                seconds = time.perf_counter() - start
                products = wl.library_products(raw, g.n)
        else:
            stem = os.path.join(self.work, "op")
            args = wl.cli_args(op, wl.graph_path(self.input_dir, op.graph), stem)
            span_file = stem + ".spans.json" if self.rec is not None else None
            if span_file:
                argv = [sys.executable, os.path.join(BENCH, "cli_traced.py"), span_file] + args
            else:
                argv = [sys.executable, "-m", "stressdraw.cli"] + args
            code, stdout, seconds, rss_kb = run_child(argv, stem)
            self.peak_child_kb = max(self.peak_child_kb, rss_kb)
            if code != 0:
                error = f"exit {code}"
            else:
                products, problems = wl.cli_products(op.kind, stdout, stem, g.n)
            if span_file and os.path.exists(span_file):
                meta, spans = tracer.load_spans(span_file)
                run_s = sum(s[2] - s[1] for s in spans if s[0] == "cli.run")
                self.cli_import_s += seconds - run_s - meta["wrap_s"]
                tracer.merge(self.cli_spans, spans, f"{op.graph}:{op.kind}{label}")
        ratios: list[float] = []
        if error is None:
            found, ratios = wl.check_products(g, products, self.check_stats, need_svg=not probe)
            problems += found
        return {
            "graph": op.graph, "family": op.family, "kind": op.kind, "seconds": seconds,
            "error": error, "problems": problems, "ratios": ratios,
        }


def failure_census(records: list[dict]) -> dict:
    """Failures by operation kind, by error, and by graph family."""
    failed = [r for r in records if r["error"] or r["problems"]]

    def reason(r: dict) -> str:
        return r["error"] or "check"

    return {
        "attempted": len(records),
        "failed": len(failed),
        "by_kind": dict(Counter(f"{r['kind']}:{reason(r)}" for r in failed)),
        "by_error": dict(Counter(reason(r) for r in failed)),
        "by_family": dict(Counter(f"{r['family']}:{reason(r)}" for r in failed)),
    }


def gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else float("nan")


def quality(records: list[dict]) -> float:
    """Geometric-mean edge-length ratio over drawings of the random graphs."""
    return gmean([x for r in records if r["family"] != "nested" for x in r["ratios"]])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it."""
    ordered = sorted(values)
    idx = len(ordered) - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": git_commit(), "seed": seed, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "threads": PINNED_THREADS,
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace, spec: dict) -> int:
    workload, seed = args.workload, args.seed
    work = os.path.join(ROOT, ".bench_work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_workload(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args: argparse.Namespace, spec: dict, work: str) -> int:
    workload, seed, traced = args.workload, args.seed, args.trace == 1

    def say(msg: str) -> None:
        print(f"[{workload}] {msg}", flush=True)

    setup_spans = os.path.join(work, "setup.spans.json") if traced else None
    setup_ref = None if traced else Reference()
    setup_times, input_dir, manifest = set_up(
        workload, seed, work, 1 if traced else SETUP_REPEATS, setup_spans, setup_ref
    )
    say(f"set-up {statistics.median(setup_times):.3f} s as measured (median of "
        f"{len(setup_times)}: " + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    for g in manifest:
        margin = "" if g["margin"] is None else f" margin={g['margin']:.3g}"
        say(f"input {g['name']:>14} {g['family']:>10} n={g['n']} m={g['m']} outer={g['outer']}"
            f"{'' if g['timed'] else ' census'}{margin}")

    runner = Runner(workload, input_dir, manifest, work)
    ops = wl.timed_ops(workload, manifest)
    probes = wl.probe_ops(workload, manifest)
    library_graphs = {op.graph for op in probes}
    if runner.inprocess:
        library_graphs |= {op.graph for op in ops}
    runner.load_library(sorted(library_graphs))
    if runner.inprocess:
        # warm-up pass, untimed and not counted: fills caches and finishes
        # lazy imports
        for op in ops:
            runner.run(op)

    result = {"workload": workload, "trace": int(traced), "provenance": provenance(seed),
              "inputs": manifest, "setup_s_measured": setup_times}
    if traced:
        records, probe_records, values = traced_pass(runner, ops, probes, setup_spans, result)
        names = spec["per_layer"]
    else:
        probe_records = [runner.run(op, probe=True) for op in probes]
        setup_scale = REF_NOMINAL_S / statistics.median(setup_ref.samples)
        result.update(setup_reference_s=setup_ref.samples, setup_scale=setup_scale)
        say(f"set-up reference {1000 * statistics.median(setup_ref.samples):.3f} ms "
            f"(median of {len(setup_ref.samples)}), set-up times scaled by {setup_scale:.4f}")
        records, values = timed_passes(runner, ops, args.seconds, result)
        values["setup_s"] = statistics.median(setup_times) * setup_scale
        names = spec["end_to_end"] + UNBOUNDED
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in names}
    for name, val in metrics.items():
        say(f"{name:>42} {val['value']:.6g} {val['unit']}")
    for line in result.pop("notes"):
        say(line)

    census = failure_census(records)
    probe_census = failure_census(probe_records)
    result.update(census=census, probe_census=probe_census, check_stats=runner.check_stats,
                  problems=[(r["graph"], r["kind"], p) for r in records + probe_records
                            for p in r["problems"]][:50])
    say(f"failures: {census['failed']} of {census['attempted']} operations {census['by_kind']}")
    say(f"census probes: {probe_census['failed']} of {probe_census['attempted']} fail "
        f"{probe_census['by_kind']}")
    correct = not any(r["problems"] for r in records + probe_records)
    if workload == "small-batch":
        nested = failure_census([r for r in probe_records if r["family"] == "nested"])
        if nested["by_error"] != EXPECTED_NESTED_FAILURES:
            say(f"census differs from the seed commit's {EXPECTED_NESTED_FAILURES}: "
                f"{nested['by_error']}")
        # fewer nested failures is a robustness gain; more is a regression
        if nested["failed"] > sum(EXPECTED_NESTED_FAILURES.values()):
            say("more nested-family probes fail than at the seed commit")
            correct = False
    for graph, kind, problem in result["problems"][:10]:
        say(f"check: {graph} {kind}: {problem}")

    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, correct=correct, metrics=metrics), fh, indent=1)
    say(f"results: {os.path.relpath(out_path, ROOT)}")
    if not args.all_metrics:  # the result line holds the declared metrics only
        metrics = {k: v for k, v in metrics.items() if k not in {m["name"] for m in UNBOUNDED}}
    print(json.dumps({"correct": correct, "attempted": census["attempted"],
                      "failed": census["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


class Reference:
    """A fixed piece of work that does not use the package, timed between
    operations to gauge the machine's speed during the run. On the shared
    2-core machine the benchmark was built on, the same work takes up to 1.7
    times as long from one minute to the next, in every process alike (CPU
    time tracks wall time, so it is not time spent waiting for a core). The
    work mixes what the program does: a sparse LU factorization and solve, a
    Python dict loop and a numpy sort."""

    def __init__(self) -> None:
        from scipy.sparse import diags, identity, kron

        side = 40
        path = diags([-1.0, 2.2, -1.0], [-1, 0, 1], shape=(side, side))
        self.matrix = (kron(path, identity(side)) + kron(identity(side), path)).tocsc()
        self.rhs = np.ones(side * side)
        self.values = np.random.default_rng(0).random(50_000)
        self.samples: list[float] = []

    def time(self) -> None:
        from scipy.sparse.linalg import splu

        start = time.perf_counter()
        splu(self.matrix).solve(self.rhs)
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        np.sort(self.values)
        self.samples.append(time.perf_counter() - start)


def timed_passes(runner: Runner, ops: list, seconds: float,
                 result: dict) -> tuple[list[dict], dict]:
    """Whole passes until `seconds` have gone by; the end-to-end metrics."""
    records: list[dict] = []
    ref = Reference()
    start = last_ref = time.perf_counter()
    ref.time()
    passes = 0
    while True:
        for op in ops:
            records.append(runner.run(op))
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                ref.time()
                last_ref = time.perf_counter()
        passes += 1
        if time.perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            break
    # operation times scaled to a machine on which the reference takes
    # REF_NOMINAL_S; the measured times are kept in the results file
    ref_s = statistics.median(ref.samples)
    scale = REF_NOMINAL_S / ref_s
    raw_ms = [1000.0 * r["seconds"] for r in records]
    times_ms = [t * scale for t in raw_ms]
    ok = [r for r in records if not r["error"] and not r["problems"]]
    tail_ms, tail_pct = tail(times_ms)
    if runner.inprocess:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = runner.peak_child_kb
    measured = {"op_ms_p50": statistics.median(raw_ms), "op_ms_tail": tail(raw_ms)[0],
                "ops_per_s": len(ok) / sum(r["seconds"] for r in records)}
    result.update(passes=passes, op_ms_measured=raw_ms, tail_percentile=tail_pct,
                  reference_s=ref.samples, measured=measured, notes=[
                      f"tail is p{tail_pct:.1f} of {len(times_ms)} operations in {passes} passes",
                      f"reference {1000 * ref_s:.3f} ms (median of {len(ref.samples)}), "
                      f"times scaled by {scale:.4f}",
                      "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
                  ])
    return records, {
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": measured["ops_per_s"] / scale,
        "peak_rss_mb": peak_kb / 1024.0,
        "fail_share": (len(records) - len(ok)) / len(records),
        "ratio_gmean": quality(records),
    }


def traced_pass(runner: Runner, ops: list, probes: list, setup_spans: str,
                result: dict) -> tuple[list[dict], list[dict], dict]:
    """One pass, each operation untraced then traced, then the probes traced;
    the per-layer metrics."""
    # alternating per operation lets drift in the machine's speed cancel out
    # of the overhead
    rec = tracer.Recorder()
    patched = tracer.patches(rec)
    base, records = [], []
    for op in ops:
        runner.rec = None
        base.append(runner.run(op))
        runner.rec = rec
        tracer.switch(patched, True)
        records.append(runner.run(op, label="#traced"))
        tracer.switch(patched, False)
    tracer.switch(patched, True)
    probe_records = [runner.run(op, probe=True, label="#probe") for op in probes]
    tracer.switch(patched, False)
    runner.rec = None

    spans = list(rec.spans)
    tracer.merge(spans, tracer.load_spans(setup_spans)[1])
    tracer.merge(spans, runner.cli_spans)
    layer = tracer.aggregate(spans)
    base_s = sum(r["seconds"] for r in base)
    traced_s = sum(r["seconds"] for r in records)
    layer.update({
        "cli.import_s": runner.cli_import_s,
        "trace.overhead_share": (traced_s - base_s) / base_s,
        "trace.spans": len(spans),
        "quality.ratio_gmean": quality(records),
        "census.fail": failure_census(probe_records)["failed"],
    })
    stages = stage_table(spans, runner.info)
    result.update(per_layer_all=layer, stage_table=stages, notes=[
        f"untraced pass {base_s:.3f} s, traced pass {traced_s:.3f} s, "
        f"overhead {100 * layer['trace.overhead_share']:.2f} %, {len(spans)} spans",
    ] + [
        f"stage {stage}: " + ", ".join(
            f"{size} {cell['mean_s']:.4f} s x{cell['calls']}" for size, cell in sizes.items())
        for stage, sizes in stages.items()
    ])
    return base + records, probe_records, layer


STAGES = ("graph.generate_planar", "graph.validate", "solver.tutte",
          "spread.spread_pipeline", "metrics.compute_metrics")


def stage_table(spans: list[list], info: dict[str, dict]) -> dict:
    """Mean seconds per call of the ROADMAP stage-table rows, by graph size."""
    table: dict = {}
    for name, start, end, _parent, op, fail, _extra in spans:
        if name not in STAGES or fail is not None or not op:
            continue
        graph = op.split(":", 1)[0]
        if graph not in info:
            continue
        cell = table.setdefault(name, {}).setdefault(
            f"n={info[graph]['n']},m={info[graph]['m']}", [0, 0.0])
        cell[0] += 1
        cell[1] += end - start
    return {stage: {size: {"calls": c, "mean_s": s / c} for size, (c, s) in sizes.items()}
            for stage, sizes in table.items()}


# ---------------------------------------------------------------------------
# all workloads, one fresh process each
# ---------------------------------------------------------------------------

def run_all(args: argparse.Namespace, spec: dict) -> int:
    rows, worst = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--all-metrics"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines() or [""]
        worst = max(worst, proc.returncode)
        try:
            rows[workload] = json.loads(lines.pop())
        except json.JSONDecodeError:
            lines.append(f"[{workload}] crashed with exit code {proc.returncode}")
        print("\n".join(lines), flush=True)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if not args.trace:
        names += [m["name"] for m in UNBOUNDED]
    print(f"{'metric':>42} " + " ".join(f"{w:>14}" for w in rows))
    for name in names:
        cells = []
        for workload in rows:
            m = rows[workload]["metrics"].get(name)
            cells.append(f"{m['value']:>10.5g} {m['unit']:<3}" if m else f"{'':>14}")
        print(f"{name:>42} " + " ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()) and len(rows) == len(WORKLOADS),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{k}": v for w, r in rows.items() for k, v in r["metrics"].items()},
    }))
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all-metrics", action="store_true",
                    help="with --trace 0, add fail_share and ratio_gmean to the result line")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stressdraw", "__init__.py")):
        print(f"error: no package source at {SRC}/stressdraw; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    try:
        return run_workload(args, spec)
    except Exception:  # a crash is not a failed output check: own exit code
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
