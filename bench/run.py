"""End-to-end benchmark of the `dickson` CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                         [--results FILE]

Run from the repository root; the package is imported from ./src.  A
workload is a fixed list of `dickson` invocations (one pass), built from
the seed by bench/workloads.py.  One closed-loop client runs them one at
a time, each in a fresh interpreter, so start-up, imports and lazy table
builds stay inside the timing.

--trace 0 runs the invocations round-robin for S seconds (at least one
full pass), with one run of bench/refloop.py, a fixed pure-Python loop
that does not use the package, before the first and after each, and
times `dickson field` for each of the workload's fields (setup_s) a few
times spread over the run.  On a shared host a core's speed drifts by
tens of percent over minutes and both feel it alike, so each sample is
divided by the mean time of the reference runs just before and just
after it.  Reports:

    wall_ref        sum over invocations of the median of
                    (wall time / reference wall time)               ref
    cpu_ref         same for the children's user+sys time (wait4)   ref
    peak_rss_mb     max resident set over the workload's processes  MB
    checks_per_ref  verified report items per pass / wall_ref       1/ref
    setup_s         median over repetitions, spread over the run, of
                    the summed `field` calls, in seconds            s

`ref` is the time of one reference run, so wall_ref = 20 means a pass
takes as long as 20 runs of the loop.  The same figures in seconds
(wall_s, cpu_s, checks_per_s), which carry the host's drift, go to the
table and the results file but are not gated.

--trace 1 runs one untraced pass, then the same pass twice under the
span tracer (bench/traced.py, one fresh process per invocation), and the
gf microbenchmark (bench/gfbench.py); it reports the per-layer metrics,
checks that every work counter repeats exactly across the two traced
passes and that tracing leaves each report byte-identical.

Every invocation must exit 0, pass its output check and print the same
bytes on every run; any failure counts in `failed` and makes
`correct` false.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every
workload, prints each metric by name with its unit plus fail_ratio, and
with --results writes a results file with the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, CheckError, Invocation, check_field

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
SETUP_REPS = 5

# the console-script entry point, so argv reaches argparse unchanged
CLI = ("-c", "import sys; from dicksonrs.cli import main; sys.exit(main())")

E2E_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "checks_per_ref": "1/ref",
    "setup_s": "s",
}

# per-layer metric -> unit; values come from layer_metrics() and gfbench.py
LAYER_UNITS = {
    **{f"rscode.{k}": u for k, u in (
        ("dp_find_s", "s"), ("dp_count_s", "s"), ("dp_calls", "count"),
        ("dp_cells", "count"), ("dp_targets_per_table", "ratio"), ("bf_s", "s"),
        ("bf_calls", "count"), ("bf_subsets", "count"), ("words_decided", "count"),
        ("self_s", "s"))},
    **{f"polyring.{k}": u for k, u in (
        ("interp_calls", "count"), ("interp_points", "count"), ("interp_s", "s"),
        ("eval_calls", "count"), ("eval_s", "s"), ("self_s", "s"))},
    **{f"charsum.{k}": u for k, u in (
        ("sum_calls", "count"), ("sum_s", "s"), ("identity_calls", "count"),
        ("identity_s", "s"), ("psi_tables", "count"), ("table_entries", "count"),
        ("self_s", "s"))},
    **{f"dickson.{k}": u for k, u in (
        ("enum_s", "s"), ("field_enumerations", "count"), ("recurrence_steps", "count"),
        ("formula_s", "s"), ("preimage_calls", "count"), ("preimage_s", "s"),
        ("self_s", "s"))},
    **{f"sieve.{k}": u for k, u in (
        ("bound_calls", "count"), ("bound_log_terms", "count"), ("bound_s", "s"),
        ("region_s", "s"), ("region_scan_steps", "count"), ("identity_calls", "count"),
        ("identity_s", "s"), ("self_s", "s"))},
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "cli.instances": "count",
    **{f"gf.{op}_ns.{kind}": "ns"
       for op in ("add", "mul", "inv", "trace")
       for kind in ("prime", "char2", "oddext", "large")},
    **{f"gf.quad_char_ns.{kind}": "ns" for kind in ("prime", "oddext")},
    "gf.table_build_s.q65536": "s",
    "gf.table_build_s.q59049": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


REF_INVOCATION = Invocation(("refloop",), lambda out: 0)


class Child:
    """Outcome of one child process."""

    def __init__(self, rc, out, err, wall, cpu, maxrss_kb):
        self.rc, self.out, self.err = rc, out, err
        self.wall, self.cpu, self.maxrss_kb = wall, cpu, maxrss_kb


def run_child(cmd, env) -> Child:
    """Run cmd to completion, collecting stdout/stderr and its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            killed = False
            while sel.get_map():
                left = t0 + CHILD_TIMEOUT_S - time.perf_counter()
                if left <= 0 and not killed:
                    proc.kill()
                    killed = True
                for key, _ in sel.select(timeout=None if killed else left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    return Child(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                 wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


class Run:
    """Tallies attempts and failures; reports each failure on stderr."""

    def __init__(self, root: Path):
        src = str(root / "src")
        self.src = src
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, detail: str):
        self.failed += 1
        print(f"FAIL {what}: {detail}", file=sys.stderr)

    def ref(self) -> Child:
        """One run of the reference loop in a fresh interpreter."""
        self.attempted += 1
        child = run_child([sys.executable, str(BENCH_DIR / "refloop.py")], self.env)
        if child.rc != 0:
            self.fail("refloop", f"exit {child.rc}")
        return child

    def cli(self, argv) -> Child:
        """One `dickson` invocation in a fresh interpreter; a nonzero exit
        is recorded as a failure."""
        self.attempted += 1
        child = run_child([sys.executable, *CLI, *argv], self.env)
        if child.rc != 0:
            tail = child.err.decode(errors="replace").strip().splitlines()[-3:]
            self.fail(" ".join(argv), f"exit {child.rc} {tail}")
        return child


def setup_rep(run: Run, invs, samples) -> float:
    """One `dickson field` call per field; returns their summed wall time."""
    for inv, runs in zip(invs, samples):
        runs.append(run.cli(inv.argv))
    return sum(runs[-1].wall for runs in samples)


def check_outputs(run: Run, invs, samples) -> list[int]:
    """Check every invocation's first output and that its later runs repeat
    it byte for byte; returns the verified item count per invocation."""
    items = []
    for inv, runs in zip(invs, samples):
        first = runs[0]
        n = 0
        if first.rc == 0:
            try:
                n = inv.check(first.out)
            except (CheckError, ValueError, KeyError, TypeError) as e:
                run.fail(" ".join(inv.argv), f"check: {e!r}")
        items.append(n)
        for later in runs[1:]:
            if later.rc == 0 and later.out != first.out:
                run.fail(" ".join(inv.argv), "stdout differs between runs")
    return items


def measure(run: Run, workload, seed: int, seconds: float) -> dict:
    """The invocations round-robin with one run of the reference loop
    before the first and after each: one full pass, then each next
    invocation whose previous run time, with its reference run, still fits
    in `seconds`; SETUP_REPS set-up repetitions are spread over the same
    time.  A sample's time is divided by the mean time of the reference
    runs just before and just after it; per-invocation medians of these
    ratios are summed."""
    invs = workload.invocations(seed)
    field_invs = [Invocation(("field", "--field", spec), check_field(spec))
                  for spec in workload.fields]
    field_runs = [[] for _ in field_invs]
    setup_rep(run, field_invs, field_runs)  # untimed: writes the bytecode cache
    setup_totals = []
    refs = [run.ref()]
    samples = [[] for _ in invs]  # (child, reference run before, reference run after)
    t0 = time.perf_counter()
    i = 0
    while i < len(invs) or (time.perf_counter() - t0 + samples[i % len(invs)][-1][0].wall
                            + refs[-1].wall <= seconds):
        # set-up repetitions are spread over the run, so that their median
        # sees the host over the whole run, not over the few seconds of a burst
        if (len(setup_totals) < SETUP_REPS
                and time.perf_counter() - t0 >= len(setup_totals) * seconds / SETUP_REPS):
            setup_totals.append(setup_rep(run, field_invs, field_runs))
        child = run.cli(invs[i % len(invs)].argv)
        refs.append(run.ref())
        samples[i % len(invs)].append((child, refs[-2], refs[-1]))
        i += 1
    while len(setup_totals) < SETUP_REPS:
        setup_totals.append(setup_rep(run, field_invs, field_runs))
    check_outputs(run, field_invs, field_runs)
    items = check_outputs(run, invs, [[c for c, _, _ in runs] for runs in samples])
    check_outputs(run, [REF_INVOCATION], [refs])
    setup_s = statistics.median(setup_totals)

    def per_pass(value):
        return sum(statistics.median(value(c) for c, _, _ in runs) for runs in samples)

    def per_pass_ref(value):
        return sum(statistics.median(2 * value(c) / (value(before) + value(after))
                                     for c, before, after in runs)
                   for runs in samples)

    wall_ref = per_pass_ref(lambda c: c.wall)
    wall_s = per_pass(lambda c: c.wall)
    return {
        "metrics": {
            "wall_ref": wall_ref,
            "cpu_ref": per_pass_ref(lambda c: c.cpu),
            "peak_rss_mb": max(c.maxrss_kb for runs in samples for c, _, _ in runs) / 1024,
            "checks_per_ref": sum(items) / wall_ref,
            "setup_s": setup_s,
        },
        # in seconds, not gated: they carry the host's speed drift
        "raw": {
            "wall_s": wall_s,
            "cpu_s": per_pass(lambda c: c.cpu),
            "checks_per_s": sum(items) / wall_s,
            "ref_wall_s": statistics.median(r.wall for r in refs),
        },
        # the slowest sample of each invocation (p100 of n samples), not gated
        "wall_s_max": sum(max(c.wall for c, _, _ in runs) for runs in samples),
        "samples_per_invocation": [len(runs) for runs in samples],
        "invocation_wall_s": [[c.wall for c, _, _ in runs] for runs in samples],
        "reference_wall_s": [r.wall for r in refs],
        "items_per_pass": sum(items),
    }


# --- traced run ------------------------------------------------------------


def _merge(docs) -> dict:
    edges, groups, counters = {}, {}, {}
    for doc in docs:
        for parent, name, calls, total, self_s in doc["edges"]:
            e = edges.setdefault((parent, name), [0, 0.0, 0.0])
            e[0] += calls
            e[1] += total
            e[2] += self_s
        for key, (calls, total) in doc["groups"].items():
            g = groups.setdefault(key, [0, 0.0])
            g[0] += calls
            g[1] += total
        for key, val in doc["counters"].items():
            counters[key] = counters.get(key, 0) + val
    return {"edges": edges, "groups": groups, "counters": counters}


def layer_metrics(agg) -> dict:
    groups, c = agg["groups"], agg["counters"]

    def calls(key):
        return groups.get(key, [0, 0.0])[0]

    def secs(key):
        return groups.get(key, [0, 0.0])[1]

    self_s = {}
    for (_, name), (_, _, s) in agg["edges"].items():
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + s
    tables = c.get("rscode.dp_tables", 0)
    return {
        "rscode.dp_find_s": secs("rscode.dp_find"),
        "rscode.dp_count_s": secs("rscode.dp_count"),
        "rscode.dp_calls": calls("rscode.dp_find") + calls("rscode.dp_count"),
        "rscode.dp_cells": c.get("rscode.dp_cells", 0),
        "rscode.dp_targets_per_table": c.get("rscode.dp_targets", 0) / tables if tables else 0.0,
        "rscode.bf_s": secs("rscode.bf"),
        "rscode.bf_calls": calls("rscode.bf"),
        "rscode.bf_subsets": c.get("rscode.bf_subsets", 0),
        "rscode.words_decided": calls("rscode.decide"),
        "rscode.self_s": self_s.get("rscode", 0.0),
        "polyring.interp_calls": calls("polyring.interp"),
        "polyring.interp_points": c.get("polyring.interp_points", 0),
        "polyring.interp_s": secs("polyring.interp"),
        "polyring.eval_calls": calls("polyring.eval"),
        "polyring.eval_s": secs("polyring.eval"),
        "polyring.self_s": self_s.get("polyring", 0.0),
        "charsum.sum_calls": calls("charsum.sum"),
        "charsum.sum_s": secs("charsum.sum"),
        "charsum.identity_calls": calls("charsum.identity"),
        "charsum.identity_s": secs("charsum.identity"),
        "charsum.psi_tables": c.get("charsum.psi_tables", 0),
        "charsum.table_entries": c.get("charsum.table_entries", 0),
        "charsum.self_s": self_s.get("charsum", 0.0),
        "dickson.enum_s": secs("dickson.enum"),
        "dickson.field_enumerations": c.get("dickson.field_enumerations", 0),
        "dickson.recurrence_steps": c.get("dickson.recurrence_steps", 0),
        "dickson.formula_s": secs("dickson.formula"),
        "dickson.preimage_calls": calls("dickson.preimage"),
        "dickson.preimage_s": secs("dickson.preimage"),
        "dickson.self_s": self_s.get("dickson", 0.0),
        "sieve.bound_calls": calls("sieve.bound"),
        "sieve.bound_log_terms": c.get("sieve.bound_log_terms", 0),
        "sieve.bound_s": secs("sieve.bound"),
        "sieve.region_s": secs("sieve.region"),
        "sieve.region_scan_steps": c.get("sieve.region_scan_steps", 0),
        "sieve.identity_calls": calls("sieve.identity"),
        "sieve.identity_s": secs("sieve.identity"),
        "sieve.self_s": self_s.get("sieve", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.emit_s": secs("cli.emit"),
        "cli.instances": c.get("cli.instances", 0),
    }


def trace(run: Run, workload, seed: int) -> dict:
    invs = workload.invocations(seed)
    plain = [run.cli(inv.argv) for inv in invs]
    check_outputs(run, invs, [[c] for c in plain])
    traced_runs = []
    per_invocation = []  # outermost span-group seconds per invocation, first traced pass
    for rep in range(2):
        docs, wall = [], 0.0
        for inv, ref in zip(invs, plain):
            run.attempted += 1
            child = run_child([sys.executable, str(BENCH_DIR / "traced.py"), run.src, *inv.argv],
                              run.env)
            wall += child.wall
            what = "traced " + " ".join(inv.argv)
            if child.rc != 0:
                run.fail(what, f"tracer exit {child.rc}")
                continue
            doc = json.loads(child.out.splitlines()[-1])
            if doc["rc"] != 0:
                run.fail(what, f"exit {doc['rc']}")
            elif doc["stdout_sha256"] != hashlib.sha256(ref.out).hexdigest():
                run.fail(what, "traced stdout differs from the untraced run")
            docs.append(doc)
            if rep == 0:
                groups = {k: round(v[1], 6) for k, v in doc["groups"].items()}
                per_invocation.append({"argv": list(inv.argv), "wall_s": child.wall,
                                       "group_s": groups})
        traced_runs.append((_merge(docs), wall))
    (agg1, wall1), (agg2, wall2) = traced_runs
    # work counters and span call counts must repeat exactly
    for key in sorted(set(agg1["counters"]) | set(agg2["counters"]) | set(agg1["groups"])):
        v1 = agg1["counters"].get(key, agg1["groups"].get(key, [None])[0])
        v2 = agg2["counters"].get(key, agg2["groups"].get(key, [None])[0])
        if v1 != v2:
            run.fail(f"counter {key}", f"{v1} != {v2} across two traced passes")
    m1, m2 = layer_metrics(agg1), layer_metrics(agg2)
    metrics = {k: (m1[k] + m2[k]) / 2 if isinstance(m1[k], float) else m1[k] for k in m1}
    run.attempted += 1
    gf = run_child([sys.executable, str(BENCH_DIR / "gfbench.py"), run.src, str(seed)], run.env)
    if gf.rc == 0:
        metrics.update(json.loads(gf.out.splitlines()[-1]))
    else:
        run.fail("gfbench", f"exit {gf.rc} {gf.err.decode(errors='replace')[-300:]}")
    traced_wall = (wall1 + wall2) / 2
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(c.wall for c in plain)
    edges = [[p, n, *v] for (p, n), v in sorted(agg1["edges"].items(), key=str)]
    return {"metrics": metrics, "edges": edges, "per_invocation": per_invocation}


# --- reporting -------------------------------------------------------------


def _with_units(metrics: dict, units: dict) -> dict:
    return {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_table(name, res, seed):
    print(f"== {name}  seed={seed}  samples/invocation={res.get('samples_per_invocation', '-')}  "
          f"items/pass={res.get('items_per_pass', '-')}  wall_s_max={res.get('wall_s_max', '-')}")
    for key, m in res["metrics"].items():
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}")
    for key, val in res.get("raw", {}).items():
        unit = "1/s" if key.startswith("checks") else "s"
        print(f"  {key + ' (not gated)':32s} {val:>16.6g} {unit}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':32s} {ratio:>16.6g} ({res['failed']}/{res['attempted']})")


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool,
                 both: bool = False) -> dict:
    run = Run(root)
    workload = WORKLOADS[name]
    res = {"why": workload.why, "argv": [list(i.argv) for i in workload.invocations(seed)]}
    metrics = {}
    if both or not traced:
        e2e = measure(run, workload, seed, seconds)
        metrics.update(_with_units(e2e.pop("metrics"), E2E_UNITS))
        res.update(e2e)
    if traced:
        tr = trace(run, workload, seed)
        metrics.update(_with_units(tr["metrics"], LAYER_UNITS))
        res["trace_edges"] = tr["edges"]
        res["trace_per_invocation"] = tr["per_invocation"]
    res.update(correct=run.failed == 0, attempted=run.attempted, failed=run.failed,
               metrics=metrics)
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", default=None,
                    help="also write a results file with provenance (JSON)")
    args = ap.parse_args()
    # SIGTERM unwinds through run_child, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "dicksonrs" / "cli.py").is_file():
        print(f"error: {root} holds no src/dicksonrs; run from the repository root",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # `all` reports end-to-end metrics always, per-layer ones with --trace 1
    both = args.workload == "all"
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace), both)
               for n in names}
    if args.results:
        doc = {
            "git_sha": _git_sha(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seed": args.seed,
            "seconds": args.seconds,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": results,
        }
        Path(args.results).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.workload == "all":
        for n, res in results.items():
            _print_table(n, res, args.seed)
    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in keys}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
