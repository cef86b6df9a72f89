#!/usr/bin/env python3
"""Outside-in campaign benchmark for the scamv CLI.

The benchmark builds cmd/scamv from the source tree it sits in and drives
whole Scam-V validation campaigns through the command line, as a user
reproducing the paper's Table 1 would: one invocation runs the unguided and
the refined campaign of a model pair and prints their count tables. Nothing
inside the program is imported or patched.

Usage, from the repository root:

    python3 campaignbench/run.py --workload mct --seed 1 --seconds 30 --trace 0

A run:

1. builds the CLI into .bench_build/, with the Go caches kept there too, so
   the build reads and writes nothing outside the checkout;
2. measures: runs campaigns of a fixed size, each with its own campaign seed
   drawn from --seed, until --seconds have passed, then runs the first one
   again to check that its results reproduce;
3. set-up: before each campaign, runs a one-program, one-test invocation of
   the workload's campaign (process start to first verdict); setup_s is the
   median of their CPU times;
4. checks every campaign's output (check_campaign, check_trace) and prints
   one JSON object as the last line of standard output.

With --trace 0 the campaigns run untraced and the end-to-end metrics are
reported: the CPU time (user + system) a campaign spends per verdict and its
peak resident memory, both medians over the campaigns, and setup_s. Times
are CPU times, not wall clock, because on a shared virtual machine the
hypervisor's steal makes wall clock swing by 2x from one minute to the next
while CPU time moves by about a tenth. With --trace 1 the same campaigns run
with -trace, and the per-layer metrics are read back from the JSONL trace
the program writes: the wall time in each pipeline span (proggen, encode,
lift, symexec, testgen, execute) per verdict, solver query latency and
effort, and platform execution time per test case. The traced CPU and wall
time per verdict are reported as well; traced_verdict_cpu_ms over
verdict_cpu_ms is the tracing overhead.

Which layer moves which end-to-end metric: testgen_us and the query_*
figures (solver) set most of verdict_cpu_ms on every workload, most of all on
mct and mpart; execute_us and exec_*_us weigh about twice as much on
matrix, where every test case runs on three simulated cores; lift, symexec
and proggen are small everywhere. setup_s moves with process start and the
cost of the first program; peak_rss_mb with the heap a campaign keeps.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BUILD = os.path.join(os.getcwd(), ".bench_build")
BIN = os.path.join(BUILD, "bin", "scamv")

# Programs in flight per stage, pinned so the workload does not change with
# the host's core count.
PARALLEL = 2
MIN_CAMPAIGNS = 5
# A single invocation running longer than this has hung.
CAMPAIGN_TIMEOUT_S = 60
# No new campaign starts this long after the build, so a run ends well inside
# 180 s even on a much slower machine.
RUN_BUDGET_S = 120

# Each workload is one CLI campaign pair at a fixed size; only the campaign
# seed varies. One invocation takes about 0.3 s on two cores, so a 30 s run
# takes the median over some 90 campaigns.
WORKLOADS = {
    # Table 1, M_ct refined by M_spec on Template A: the A53 speculates, so
    # the refined campaign finds counterexamples; test generation dominates.
    "mct": {"args": ["-exp", "mct-a"], "programs": 10, "tests": 10},
    # Table 1, M_part refined by M_part' with M_line coverage on the stride
    # template: other relation shapes, an attacker view over a set range and
    # a noisy platform (inconclusive verdicts).
    "mpart": {"args": ["-exp", "mpart"], "programs": 10, "tests": 10},
    # The mct pair on the a53/a72/m0 platform matrix: the same generation,
    # every test case executed on three simulated cores.
    "matrix": {"args": ["-exp", "mct-a", "-matrix"], "programs": 10, "tests": 10},
}

END_TO_END = {"verdict_cpu_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# Pipeline spans the program traces, in pipeline order.
SPANS = ["proggen", "encode", "lift", "symexec", "testgen", "execute"]

PER_LAYER = {
    "traced_verdict_cpu_ms": "ms",
    "traced_verdict_ms": "ms",
    **{f"{s}_us": "us/verdict" for s in SPANS},
    "queries_per_verdict": "count",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "sat_query_share": "ratio",
    "conflicts_per_query": "count",
    "decisions_per_query": "count",
    "propagations_per_query": "count",
    "blast_cache_hit_share": "ratio",
    "exec_p50_us": "us",
    "exec_p99_us": "us",
}

# Count-table rows the benchmark reads: label -> key.
ROWS = {
    "Model": "Model",
    "Refinement": "Refinement",
    "Programs": "Programs",
    "Prog. w. Count.": "ProgWithCounter",
    "Experiments": "Experiments",
    "- Counterexample": "Counterexamples",
    "- Inconclusive": "Inconclusive",
    "- First c.e.": "FirstCE",
}
COUNTS = {"Programs", "ProgWithCounter", "Experiments", "Counterexamples", "Inconclusive"}
MATRIX_HEAD = re.compile(r"^matrix\[(.+)\] model=")
PLATFORMS = ["a53", "a72", "m0"]


def fail(msg):
    print(f"campaignbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("go.mod") and os.path.isdir(os.path.join("cmd", "scamv"))):
        fail("run from the repository root: go.mod or cmd/scamv is missing")
    # Fall back to the official Go distribution's default install location.
    go = shutil.which("go") or "/usr/local/go/bin/go"
    if not os.path.exists(go):
        fail("go toolchain not found")
    home, tmp = os.path.join(BUILD, "home"), os.path.join(BUILD, "tmp")
    for d in (home, tmp, os.path.dirname(BIN)):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    r = subprocess.run([go, "build", "-o", BIN, "./cmd/scamv"], env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout.decode(errors="replace"))


def parse_tables(stdout):
    """Parses the count-table columns and the matrix rows of one invocation.

    Columns come back as dicts keyed by ROWS values, in print order; matrix
    rows as {campaign: [[platform, verdict, exps, cex, inconcl, skipped,
    first c.e.], ...]}.
    """
    columns, matrix = [], {}
    table, block = [], None
    for line in stdout.splitlines():
        m = MATRIX_HEAD.match(line)
        if m:
            block = matrix.setdefault(m.group(1), [])
            continue
        if block is not None:
            f = line.split()
            if not f:
                block = None
            elif f[0] != "platform":
                block.append(f)
            continue
        for label, key in ROWS.items():
            if line.startswith(label + " "):
                vals = re.split(r"\s{2,}", line[len(label):].strip())
                if key == "Model":
                    table = [{} for _ in vals]
                    columns += table
                for col, v in zip(table, vals):
                    col[key] = int(v) if key in COUNTS else v
                break
    return columns, matrix


class Campaign:
    """One finished CLI invocation: its cost and its parsed output."""

    def __init__(self, wall, cpu, rss_kb, stdout):
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.columns, self.matrix = parse_tables(stdout)

    def verdicts(self):
        return sum(c["Experiments"] for c in self.columns)

    def signature(self):
        """Everything deterministic per seed: counts, first c.e., matrix rows."""
        return json.dumps([self.columns, self.matrix], sort_keys=True)


def run_cli(args, workdir, trace_path=None):
    """Runs the CLI once and returns a Campaign; raises RuntimeError on failure."""
    argv = [BIN, *args, "-parallel", str(PARALLEL)]
    if trace_path:
        argv += ["-trace", trace_path]
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CAMPAIGN_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; record that so Popen does not wait for it again.
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as f:
            raise RuntimeError(f"{' '.join(args)}: exit {p.returncode}: {f.read().strip()[-500:]}")
    with open(out_path, encoding="utf-8", errors="replace") as f:
        return Campaign(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, f.read())


def check_campaign(wl, c, programs, tests):
    """Returns the ways one invocation's output is wrong (empty when right)."""
    if len(c.columns) != 2:
        return [f"expected an unguided and a refined column, parsed {len(c.columns)}"]
    errs = []
    for col in c.columns:
        missing = [k for k in ROWS.values() if k not in col]
        if missing:
            errs.append(f"column lacks rows {missing}")
            continue
        name = col["Refinement"]
        if col["Programs"] != programs:
            errs.append(f"{name}: {col['Programs']} programs, want {programs}")
        if not 0 < col["Experiments"] <= programs * tests:
            errs.append(f"{name}: {col['Experiments']} experiments outside (0, {programs * tests}]")
        if col["Counterexamples"] + col["Inconclusive"] > col["Experiments"]:
            errs.append(f"{name}: more counterexamples and inconclusives than experiments")
        found = col["Counterexamples"] > 0
        if found != (col["ProgWithCounter"] > 0) or found != (col["FirstCE"] != "-"):
            errs.append(f"{name}: counterexamples, programs with one, and first c.e. disagree")
        if col["ProgWithCounter"] > min(programs, col["Counterexamples"]):
            errs.append(f"{name}: more programs with a counterexample than possible")
    if errs:
        return errs
    if wl in ("mct", "matrix") and c.columns[1]["Counterexamples"] == 0:
        # The A53 speculates, so M_ct is unsound on it: refined by M_spec, a
        # campaign of this size always finds a leak (Table 1).
        errs.append("refined M_ct campaign found no counterexample on the A53")
    if wl == "matrix":
        if len(c.matrix) != 2:
            return errs + [f"expected two matrix blocks, parsed {len(c.matrix)}"]
        for col, (name, rows) in zip(c.columns, c.matrix.items()):
            if [r[0] for r in rows] != PLATFORMS:
                errs.append(f"{name}: matrix platforms {[r[0] for r in rows]}, want {PLATFORMS}")
                continue
            counts = [[int(x) for x in r[2:5]] for r in rows]
            if counts[0] != [col["Experiments"], col["Counterexamples"], col["Inconclusive"]]:
                errs.append(f"{name}: the a53 row differs from the campaign counts")
            for r, (exps, cex, _) in zip(rows, counts):
                if exps != col["Experiments"]:
                    errs.append(f"{name}: {r[0]} ran {exps} experiments, want {col['Experiments']}")
                if (r[1] == "unsound") != (cex > 0):
                    errs.append(f"{name}: {r[0]} is {r[1]} with {cex} counterexamples")
            if counts[2][1] != 0:
                # The in-order m0 never speculates, so M_ct is sound on it.
                errs.append(f"{name}: counterexample on the non-speculating m0")
    return errs


def read_trace(path):
    """Sums one JSONL trace into verdict tallies and per-layer totals."""
    agg = {
        "spans": dict.fromkeys(SPANS, 0),
        "query_us": [], "exec_us": [], "sat": 0,
        "conflicts": 0, "decisions": 0, "propagations": 0,
        "blast_hits": 0, "blast_misses": 0,
        "tally": {},  # campaign -> [verdicts, counterexamples]
        "platforms": {},  # (campaign, platform) -> [verdicts, counterexamples]
    }
    camp = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            r = json.loads(line)
            kind = r["kind"]
            if kind == "campaign":
                camp = r["name"]
                agg["tally"][camp] = [0, 0]
            elif kind == "span" and r["stage"] in agg["spans"]:
                agg["spans"][r["stage"]] += r.get("dur_us", 0)
            elif kind == "query":
                agg["query_us"].append(r.get("dur_us", 0))
                agg["sat"] += r.get("status") == "sat"
                for k in ("conflicts", "decisions", "propagations", "blast_hits", "blast_misses"):
                    agg[k] += r.get(k, 0)
            elif kind in ("verdict", "platform"):
                if kind == "verdict":
                    agg["exec_us"].append(r.get("dur_us", 0))
                    t = agg["tally"][camp]
                else:
                    t = agg["platforms"].setdefault((camp, r["name"]), [0, 0])
                t[0] += 1
                t[1] += r.get("verdict") == "counterexample"
    return agg


def check_trace(c, agg):
    """The trace's verdict records must tally to the printed tables."""
    errs = []
    want = [[col["Experiments"], col["Counterexamples"]] for col in c.columns]
    got = list(agg["tally"].values())
    if got != want:
        errs.append(f"trace verdicts {got} disagree with the table {want}")
    for name, rows in c.matrix.items():
        for r in rows:
            t = agg["platforms"].get((name, r[0]), [0, 0])
            if t != [int(r[2]), int(r[3])]:
                errs.append(f"{name}: trace tallies {t} for {r[0]}, the table {r[2:4]}")
    return errs


def layer_times(c, agg):
    """The per-layer times of one traced invocation, per verdict."""
    v = c.verdicts()
    m = {"traced_verdict_cpu_ms": 1000 * c.cpu / v, "traced_verdict_ms": 1000 * c.wall / v}
    for s in SPANS:
        m[f"{s}_us"] = agg["spans"][s] / v
    return m


def layer_counts(t):
    """Solver work and outcomes over all traced invocations of a run."""
    nq = len(t["query_us"])
    blast = t["blast_hits"] + t["blast_misses"]
    return {
        "queries_per_verdict": nq / t["verdicts"],
        "query_p50_us": statistics.median(t["query_us"]),
        "query_p99_us": statistics.quantiles(t["query_us"], n=100)[98],
        "sat_query_share": t["sat"] / nq,
        "conflicts_per_query": t["conflicts"] / nq,
        "decisions_per_query": t["decisions"] / nq,
        "propagations_per_query": t["propagations"] / nq,
        "blast_cache_hit_share": t["blast_hits"] / blast if blast else 0.0,
        "exec_p50_us": statistics.median(t["exec_us"]),
        "exec_p99_us": statistics.quantiles(t["exec_us"], n=100)[98],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    started = time.perf_counter()
    wl = WORKLOADS[a.workload]
    programs, tests = wl["programs"], wl["tests"]
    rng = random.Random(a.seed)
    workdir = os.path.join(BUILD, "work", f"{a.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    def args_for(cseed, programs, tests):
        return [*wl["args"], "-programs", str(programs), "-tests", str(tests), "-seed", str(cseed)]

    def setup_sample():
        """Process start, campaign set-up and one program through every layer
        to its first verdict."""
        try:
            return run_cli(args_for(rng.randrange(1, 2**31), 1, 1), workdir).cpu
        except RuntimeError as e:
            fail(f"set-up: {e}")

    attempted = failed = 0
    errors, seeds, results, times = [], [], [], []
    # Run-wide sums of the traced solver and platform work.
    totals = {"verdicts": 0, "query_us": [], "exec_us": [], "sat": 0, "conflicts": 0,
              "decisions": 0, "propagations": 0, "blast_hits": 0, "blast_misses": 0}
    try:
        setup_sample()  # unmeasured: warms the page cache
        setup = []
        trace_path = os.path.join(workdir, "trace.jsonl") if a.trace else None
        t0 = time.perf_counter()
        while (len(results) < MIN_CAMPAIGNS or time.perf_counter() - t0 < a.seconds) \
                and time.perf_counter() - started < RUN_BUDGET_S:
            # Set-up samples alternate with the campaigns, so both see the same
            # machine conditions over the whole run.
            setup.append(setup_sample())
            cseed = rng.randrange(1, 2**31)
            attempted += 1
            try:
                c = run_cli(args_for(cseed, programs, tests), workdir, trace_path)
                errs = check_campaign(a.workload, c, programs, tests)
                if trace_path and not errs:
                    agg = read_trace(trace_path)
                    errs = check_trace(c, agg)
            except (RuntimeError, ValueError, KeyError, IndexError) as e:
                errs = [f"{type(e).__name__}: {e}"]
            if errs:
                failed += 1
                errors += [f"seed {cseed}: {e}" for e in errs]
                continue
            seeds.append(cseed)
            results.append(c)
            if trace_path:
                times.append(layer_times(c, agg))
                totals["verdicts"] += c.verdicts()
                for k in totals:
                    if k != "verdicts":
                        totals[k] += agg[k]

        # Determinism: the first campaign, run again, reproduces its counts.
        if results:
            attempted += 1
            try:
                again = run_cli(args_for(seeds[0], programs, tests), workdir)
                if again.signature() != results[0].signature():
                    raise RuntimeError("the rerun's counts differ from the first run's")
            except RuntimeError as e:
                failed += 1
                errors.append(f"seed {seeds[0]}: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors[:20]:
        print(f"campaignbench: {e}", file=sys.stderr)
    if not results:
        fail("no campaign completed")

    if a.trace:
        metrics = {k: statistics.median(m[k] for m in times) for k in times[0]}
        metrics.update(layer_counts(totals))
        units = PER_LAYER
    else:
        metrics = {
            "verdict_cpu_ms": statistics.median(1000 * c.cpu / c.verdicts() for c in results),
            "peak_rss_mb": statistics.median(c.rss_kb / 1024 for c in results),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    print(f"campaignbench: {a.workload} seed {a.seed}: {len(results)} campaigns, "
          f"{sum(c.verdicts() for c in results)} verdicts",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
