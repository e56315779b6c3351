#!/usr/bin/env python3
"""Seeded benchmark of the crawlbias command line and of its layers.

Run from the repository root:

    python3 bench/run.py --workload bias-gen --seed 1 --seconds 40 --trace 0

With --trace 0 the benchmark prepares the workload's inputs through
`crawlbias generate`, then runs the workload's `curves`/`compare` CLI runs
as subprocesses, one pass after another, until --seconds have passed. Every
output CSV is checked. The last stdout line is one JSON object with the
end-to-end metrics; the lines before it report every metric with its unit
and sample count.

With --trace 1 it instead calls the public functions of each layer
(graph, generate, samplers, analytic, estimators, experiments, cli) at the
workload's sizes, records a span around each call, and reports the
per-layer metrics. Spans are written to .bench_out/ in the repository root.

Workloads, metrics and the layer metric each end-to-end metric should move
are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pickle
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PK = "powerlaw:2.5:2:100"
CLI_TIMEOUT_S = 120.0

# Documented CSV columns (README "Command line" and experiments.*_COLUMNS).
BIAS_COLUMNS = ["technique", "f", "replicas", "empirical_mean", "empirical_std",
                "analytic_mean", "rw_mean", "true_mean", "flagged"]
SWEEP_COLUMNS = ["target_r", "achieved_r", "rewire_ok", "technique", "f", "replicas",
                 "empirical_mean", "analytic_mean", "rw_mean", "true_mean"]
CORRECTION_COLUMNS = ["f", "replica", "sampled_mean", "bfs_corrected", "rw_corrected",
                      "true_mean", "converged", "iterations", "residual"]
COMPARE_COLUMNS = ["method", "mean_estimate", "rmse", "replicas", "diag_iterations",
                   "diag_residual"]
COLUMNS = {"bias": BIAS_COLUMNS, "assortativity": SWEEP_COLUMNS,
           "correction": CORRECTION_COLUMNS, "compare": COMPARE_COLUMNS}

# An estimate passes when |estimate - reference| <= Z_TOL standard errors plus
# REL_FLOOR of the reference. The floor covers finite-size effects of the
# analytic curve near full coverage, where the standard error vanishes.
Z_TOL = 4.0
REL_FLOOR = 0.002
# Techniques whose expected sampled degree follows the traversal law q_k(f).
TRAVERSALS = ("bfs", "dfs", "ff", "sbs", "wwor", "stub")
# A row's own empirical_std is its noise level from this many replicas on;
# with fewer, only bfs rows are checked, against the benchmark's bfs runs.
STD_REPLICAS = 10
F_GRID = (0.1, 0.5, 0.9)         # coverages of every curves run
F_LO, F_HI = F_GRID[0], F_GRID[-1]
# The host's speed drifts by up to half for minutes at a time as other tenants
# load it. End-to-end times are therefore scaled to a reference speed: a fixed
# pure-Python loop, timed after every CLI run for CAL_SHARE of the run's wall
# time (at least once), takes CAL_REF_S at that speed.
CAL_REF_S = 0.08
CAL_SHARE = 0.05


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads; the self-test shrinks them."""

    bias_nodes: int = 10_000
    bias_replicas: int = 12
    sweep_replicas: int = 6
    revival_nodes: int = 2_000
    revival_replicas: int = 1
    estimate_nodes: int = 100_000
    correction_replicas: int = 4
    compare_replicas: int = 32
    compare_depth: int = 4
    setup_repeats: int = 5
    sigma_runs: int = 32


FULL = Sizes()


@dataclass
class Run:
    """One CLI run of a workload pass."""

    label: str                 # bias | sweep | correction | correction_2w | compare
    command: str               # curves | compare
    config: dict


@dataclass
class Plan:
    name: str
    nodes: int                 # nodes of the input graph made in set-up
    graph_file: Path           # edge list written by `crawlbias generate`
    runs: list[Run]
    seed: int


# --- workloads ---------------------------------------------------------------

def make_plan(name: str, seed: int, work: Path, sizes: Sizes) -> Plan:
    graph = work / "graph.txt"
    f_grid = list(F_GRID)
    if name == "bias-gen":
        gen = {"generate": {"pk": PK, "nodes": sizes.bias_nodes}}
        runs = [
            Run("bias", "curves", {
                "graph": gen, "mode": "bias", "workers": 2, "seed": seed, "f_grid": f_grid,
                "replicas": sizes.bias_replicas,
                "techniques": ["bfs", "dfs", {"name": "ff", "p": 0.7}, "rw", "mhrw", "wwor",
                               "stub"]}),
            Run("sweep", "curves", {
                "graph": gen, "mode": "assortativity", "seed": seed, "f_grid": f_grid,
                "replicas": sizes.sweep_replicas, "assortativity_targets": [-0.1, 0.0, 0.1],
                "techniques": ["bfs", "wwor"]}),
        ]
        return Plan(name, sizes.bias_nodes, graph, runs, seed)
    src = {"file": str(graph)}
    if name == "revival":
        runs = [Run("bias", "curves", {
            "graph": src, "mode": "bias", "seed": seed, "f_grid": f_grid,
            "replicas": sizes.revival_replicas,
            "techniques": [{"name": "ff", "p": 0.5}, {"name": "sbs", "names": 2},
                           {"name": "ff", "p": 0.3}, {"name": "sbs", "names": 1}, "bfs"]})]
        return Plan(name, sizes.revival_nodes, graph, runs, seed)
    if name == "estimate-100k":
        corr = {"graph": src, "mode": "correction", "seed": seed, "f_grid": f_grid,
                "replicas": sizes.correction_replicas}
        runs = [
            Run("correction", "curves", corr),
            Run("correction_2w", "curves", dict(corr, workers=2)),
            Run("compare", "compare", {"graph": src, "mode": "compare", "seed": seed,
                                       "replicas": sizes.compare_replicas,
                                       "depth": sizes.compare_depth}),
        ]
        return Plan(name, sizes.estimate_nodes, graph, runs, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bias-gen", "revival", "estimate-100k")


def extra_runs(plan: Plan, sizes: Sizes) -> list[Run]:
    """Small runs of the experiment modes the workload itself does not use,
    so that the traced run reports every experiments function."""
    have = {r.config["mode"] for r in plan.runs}
    src = {"file": str(plan.graph_file)}
    extra = []
    if "bias" not in have:
        extra.append(Run("bias", "curves", {"graph": src, "mode": "bias", "seed": plan.seed,
                                            "f_grid": [F_LO, F_HI], "replicas": 1,
                                            "techniques": ["bfs"]}))
    if "assortativity" not in have:
        extra.append(Run("sweep", "curves", {
            "graph": {"generate": {"pk": PK, "nodes": plan.nodes}}, "mode": "assortativity",
            "seed": plan.seed, "f_grid": [F_LO, F_HI], "replicas": 1,
            "assortativity_targets": [0.0], "techniques": ["bfs"]}))
    if "correction" not in have:
        extra.append(Run("correction", "curves", {"graph": src, "mode": "correction",
                                                  "seed": plan.seed, "f_grid": list(F_GRID),
                                                  "replicas": 8}))
    if "compare" not in have:
        extra.append(Run("compare", "compare", {"graph": src, "mode": "compare",
                                                "seed": plan.seed,
                                                "replicas": sizes.compare_replicas,
                                                "depth": sizes.compare_depth}))
    return extra


# --- subprocesses --------------------------------------------------------------

@dataclass
class CliResult:
    wall_s: float
    cpu_s: float               # user + sys of the process and its reaped children
    rss_mb: float
    code: int
    stderr: str


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"   # same hash layout in every run
    return env


def run_process(argv: list[str], cwd: Path) -> CliResult:
    """Run argv to completion in its own process group; kill the group on timeout.

    wait4 gives the rusage of the process and of every child it reaped, so
    the CPU time and peak RSS include the worker processes of a pool.
    """
    err_path = cwd / "stderr.txt"
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=cli_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read()[-2000:]
    return CliResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, message)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(args: list[str], cwd: Path) -> CliResult:
    return run_process([sys.executable, "-m", "crawlbias.cli", *args], cwd)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs Python now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def sample_speed(samples: list[float], wall_s: float) -> None:
    """Append calibrate() times until they cover CAL_SHARE of wall_s."""
    spent = 0.0
    while not spent or spent < CAL_SHARE * wall_s:
        samples.append(calibrate())
        spent += samples[-1]


# --- references and output checks ----------------------------------------------

class Refs:
    """Values the checks compare against, computed by the benchmark itself.

    A generated source realizes the rounded degree sequence of PK, not the
    continuous law; a file source realizes the cleaned input graph. The noise
    level is the per-replica standard deviation of the bfs mean degree at
    each coverage, measured on a graph of the same source.
    """

    def __init__(self, plan: Plan, sizes: Sizes):
        self.plan, self.sizes = plan, sizes
        self._graphs: dict = {}
        self._laws: dict = {}
        self._sigma: dict = {}
        self._mean_q: dict = {}

    def graph(self, kind: str):
        from crawlbias import RAW, load_edge_list
        if kind not in self._graphs:
            options = RAW if kind == "generate" else None
            self._graphs[kind] = load_edge_list(str(self.plan.graph_file), options)
        return self._graphs[kind]

    @property
    def file_mean(self) -> float:
        g = self.graph("file")
        return 2 * g.edge_count / g.node_count

    def law(self, kind: str):
        from crawlbias import DegreeDistribution, degree_sequence_from_distribution
        from crawlbias.experiments import parse_pk_spec
        if kind not in self._laws:
            seq = (degree_sequence_from_distribution(parse_pk_spec(PK), self.plan.nodes)
                   if kind == "generate" else self.graph("file").degrees())
            self._laws[kind] = DegreeDistribution.from_sequence(seq)
        return self._laws[kind]

    def mean_q(self, kind: str, f: float) -> float:
        from crawlbias import mean_q_of_f
        if (kind, f) not in self._mean_q:
            self._mean_q[kind, f] = mean_q_of_f(self.law(kind), f)
        return self._mean_q[kind, f]

    def sigma(self, kind: str, f: float) -> float:
        from crawlbias import bfs, largest_component_nodes
        if kind not in self._sigma:
            g = self.graph(kind)
            comp = largest_component_nodes(g)
            rng = random.Random(self.plan.seed)
            grid = {x: max(1, round(x * g.node_count)) for x in F_GRID}
            means: dict[float, list[float]] = {x: [] for x in F_GRID}
            for _ in range(self.sizes.sigma_runs):
                degs = bfs(g, comp[rng.randrange(len(comp))], max(grid.values())).degrees
                for x, m in grid.items():
                    means[x].append(sum(degs[:m]) / len(degs[:m]))
            self._sigma[kind] = {x: statistics.stdev(v) for x, v in means.items()}
        return self._sigma[kind][f]


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        return [], []
    reader = csv.reader(lines)
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _within(value: float, ref: float, se: float) -> bool:
    return abs(value - ref) <= Z_TOL * se + REL_FLOOR * abs(ref)


def check_output(run: Run, text: str, refs: Refs) -> list[str]:
    """Problems found in one output CSV; an empty list means it passed."""
    header, rows = parse_csv(text)
    cfg = run.config
    mode = cfg["mode"]
    expected = COLUMNS[mode]
    if header != expected:
        return [f"{run.label}: columns {header} != {expected}"]
    try:
        if mode == "bias":
            return _check_bias(run, rows, refs)
        if mode == "assortativity":
            return _check_sweep(run, rows, refs)
        if mode == "correction":
            return _check_correction(run, rows, refs)
        return _check_compare(run, rows, refs)
    except (KeyError, ValueError) as exc:
        return [f"{run.label}: unreadable row: {exc}"]


def _tech_tag(t) -> str:
    if isinstance(t, str):
        return t
    return f"ff:p={t['p']:g}" if t["name"] == "ff" else f"sbs:n={t['names']}"


def _law_problem(run: Run, row: dict, refs: Refs) -> str | None:
    """Traversal rows against the realized-law curve, where the noise is known.

    Forest fire and snowball revive stalled fires and vary more than bfs, so
    the bfs spread does not bound them; they are checked only when the run
    has enough replicas for their own spread.
    """
    tag = row["technique"]
    replicas = run.config["replicas"]
    kind = "generate" if "generate" in run.config["graph"] else "file"
    f = float(row["f"])
    if tag.split(":")[0] not in TRAVERSALS:
        return None
    if replicas >= STD_REPLICAS and "empirical_std" in row:
        sigma = float(row["empirical_std"])
    elif tag == "bfs":
        sigma = refs.sigma(kind, f)
    else:
        return None
    ref = refs.mean_q(kind, f)
    value = float(row["empirical_mean"])
    if _within(value, ref, sigma / math.sqrt(replicas)):
        return None
    return f"{run.label}: {tag} f={f:g} empirical_mean {value:.6g} vs realized-law {ref:.6g}"


def _check_bias(run: Run, rows: list[dict], refs: Refs) -> list[str]:
    cfg = run.config
    want = [(_tech_tag(t), f) for t in cfg["techniques"] for f in cfg["f_grid"]]
    got = [(r["technique"], float(r["f"])) for r in rows]
    if got != want:
        return [f"{run.label}: {len(rows)} rows for (technique, f) {got[:3]}..., "
                f"expected {len(want)}"]
    problems = []
    for r in rows:
        if int(r["replicas"]) != cfg["replicas"]:
            problems.append(f"{run.label}: replicas {r['replicas']} != {cfg['replicas']}")
        p = _law_problem(run, r, refs)
        if p:
            problems.append(p)
    return problems


def _check_sweep(run: Run, rows: list[dict], refs: Refs) -> list[str]:
    cfg = run.config
    want = [(t, _tech_tag(tech), f) for t in cfg["assortativity_targets"]
            for tech in cfg["techniques"] for f in cfg["f_grid"]]
    got = [(float(r["target_r"]), r["technique"], float(r["f"])) for r in rows]
    if got != want:
        return [f"{run.label}: {len(rows)} rows, expected {len(want)} with rewire_ok=1"]
    problems = []
    for r in rows:
        target = float(r["target_r"])
        off = target != 0.0 and abs(float(r["achieved_r"]) - target) > 0.02  # 0: unrewired
        if r["rewire_ok"] != "1" or off:
            problems.append(f"{run.label}: target {target:g} reached {r['achieved_r']}")
        if target == 0.0:  # the unrewired graph follows the law
            p = _law_problem(run, r, refs)
            if p:
                problems.append(p)
    return problems


def _check_correction(run: Run, rows: list[dict], refs: Refs) -> list[str]:
    cfg = run.config
    reps, grid = cfg["replicas"], cfg["f_grid"]
    want = [(f, str(r)) for r in range(reps) for f in grid] + [(f, "avg") for f in grid]
    got = [(float(r["f"]), r["replica"]) for r in rows]
    if got != want:
        return [f"{run.label}: {len(rows)} rows, expected {len(want)}"]
    problems = []
    for r in rows:
        if not math.isclose(float(r["true_mean"]), refs.file_mean, rel_tol=1e-9):
            problems.append(f"{run.label}: true_mean {r['true_mean']} != {refs.file_mean:.12g}")
        if r["replica"] != "avg" and (r["converged"] != "1" or abs(float(r["residual"])) > 1e-8):
            problems.append(f"{run.label}: replica {r['replica']} f={r['f']} did not converge")
    for i, f in enumerate(grid):
        vals = [float(rows[k * len(grid) + i]["bfs_corrected"]) for k in range(reps)]
        avg = float(rows[reps * len(grid) + i]["bfs_corrected"])
        se = statistics.stdev(vals) / math.sqrt(reps) if reps > 1 else 0.0
        if not _within(avg, refs.file_mean, se):
            problems.append(f"{run.label}: f={f:g} bfs_corrected {avg:.6g} "
                            f"vs true mean {refs.file_mean:.6g}")
    return problems


def _check_compare(run: Run, rows: list[dict], refs: Refs) -> list[str]:
    reps = run.config["replicas"]
    methods = sorted(r["method"] for r in rows)
    if methods != ["arb-half_radius", "bfs-corrected"]:
        return [f"{run.label}: methods {methods}"]
    problems = []
    for r in rows:
        if int(r["replicas"]) != reps:
            problems.append(f"{run.label}: {r['method']} replicas {r['replicas']} != {reps}")
        est, rmse = float(r["mean_estimate"]), float(r["rmse"])
        if not _within(est, refs.file_mean, rmse / math.sqrt(reps)):
            problems.append(f"{run.label}: {r['method']} estimate {est:.6g} "
                            f"vs true mean {refs.file_mean:.6g}")
        if r["method"] == "bfs-corrected" and abs(float(r["diag_residual"])) > 1e-8:
            problems.append(f"{run.label}: bfs-corrected residual {r['diag_residual']}")
    return problems


# --- end-to-end run --------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)   # see sample_speed()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def setup(plan: Plan, repeats: int, tally: Tally) -> list[float]:
    """Write the input graph with `crawlbias generate`, `repeats` times; return
    the wall time of each. Every repeat must write the same bytes."""
    walls, outputs = [], set()
    for _ in range(repeats):
        res = run_cli(["generate", "--pk", PK, "--nodes", str(plan.nodes), "--rng-seed",
                       str(plan.seed), "--out", str(plan.graph_file)], plan.graph_file.parent)
        sample_speed(tally.calibration, res.wall_s)
        walls.append(res.wall_s)
        outputs.add(plan.graph_file.read_bytes() if plan.graph_file.exists() else b"")
        if res.code != 0:
            tally.record([f"generate: exit {res.code}: {res.stderr.strip()}"])
        else:
            tally.record([] if len(outputs) == 1 and b"" not in outputs
                         else ["generate: empty output, or it differs between identical runs"])
    for run in plan.runs:
        cfg_path = plan.graph_file.parent / f"{run.label}.json"
        cfg_path.write_text(json.dumps(run.config), encoding="utf-8")
    return walls


def run_pass(plan: Plan, refs: Refs, tally: Tally, outputs: dict) -> dict[str, CliResult]:
    """One pass: every CLI run of the workload once, each output checked."""
    work = plan.graph_file.parent
    results = {}
    for run in plan.runs:
        out = work / f"{run.label}.csv"
        if out.exists():
            out.unlink()
        res = run_cli([run.command, "--config", str(work / f"{run.label}.json"),
                       "--out", str(out)], work)
        sample_speed(tally.calibration, res.wall_s)
        results[run.label] = res
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        if res.code != 0:
            problems = [f"{run.label}: exit {res.code}: {res.stderr.strip()}"]
        else:
            problems = check_output(run, text, refs)
            if outputs.setdefault(run.label, text) != text:
                problems.append(f"{run.label}: output differs from the first pass")
            if run.label == "correction_2w" and text != outputs.get("correction"):
                problems.append("correction_2w: CSV differs from the serial correction CSV")
        tally.record(problems)
    return results


def end_to_end(plan: Plan, sizes: Sizes, seconds: float) -> tuple[Tally, dict, list[str]]:
    tally = Tally()
    setup_walls = setup(plan, sizes.setup_repeats, tally)
    refs = Refs(plan, sizes)
    passes: list[dict[str, CliResult]] = []
    outputs: dict[str, str] = {}
    start = time.perf_counter()
    last = 0.0
    # start a pass only if it should end within the measuring time
    while not passes or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        passes.append(run_pass(plan, refs, tally, outputs))
        last = time.perf_counter() - begin
    cal = statistics.median(tally.calibration)
    scale = CAL_REF_S / cal
    raw = {
        "pass_s": [sum(r.wall_s for r in p.values()) for p in passes],
        "cpu_s": [sum(r.cpu_s for r in p.values()) for p in passes],
        "setup_s": setup_walls,
    }
    raw.update({f"{run.label}_s": [p[run.label].wall_s for p in passes] for run in plan.runs})
    metrics = {name: (statistics.median(raw[name]) * scale, "s")
               for name in ("pass_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = (statistics.median(max(r.rss_mb for r in p.values())
                                                for p in passes), "MB")
    lines = [f"calibration {cal:.6g} s median n={len(tally.calibration)}: times below are "
             f"scaled by {scale:.6g} to the reference speed ({CAL_REF_S:g} s); raw in brackets"]
    for name, values in raw.items():
        med = statistics.median(values)
        lines.append(f"metric {name} {med * scale:.6g} s median n={len(values)} ({med:.6g} s)")
    lines.append(f"metric peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB median n={len(passes)}")
    lines.append(f"metric fail_frac {tally.failed / tally.attempted:.6g} ratio "
                 f"n={tally.attempted}")
    return tally, metrics, lines


# --- traced run ------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent index) kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Per layer (name prefix before the first dot): span time not covered
        by child spans, summed."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start - covered)
        return out

    def write(self, path: Path, stamp: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": stamp}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def repeat(tracer: Tracer, name: str, fn, *, min_total: float = 0.2, max_reps: int = 5):
    """Call fn() in a span until min_total seconds or max_reps calls; return the
    median duration and the last result."""
    times, out = [], None
    while not times or (sum(times) < min_total and len(times) < max_reps):
        with tracer.span(name) as rec:
            out = fn()
        times.append(rec[2] - rec[1])
    return statistics.median(times), out


EXPERIMENT_FN = {"bias": "run_bias_curves", "assortativity": "run_assortativity_sweep",
                 "correction": "run_correction_eval", "compare": "run_compare"}


def experiment_call(run: Run, tracer: Tracer | None) -> str:
    """What the CLI does for one run, in-process; returns the CSV text."""
    from crawlbias import experiments
    cfg = experiments.ExperimentConfig.from_json(run.config)
    fn = EXPERIMENT_FN[cfg.mode]
    out = io.StringIO()
    if tracer is None:
        rows = getattr(experiments, fn)(cfg)
        experiments.write_rows_csv(rows, COLUMNS[cfg.mode], out, metadata=[cfg.metadata_line()])
        return out.getvalue()
    with tracer.span(f"experiments.{fn}"):
        rows = getattr(experiments, fn)(cfg)
    with tracer.span("experiments.write_rows_csv"):
        experiments.write_rows_csv(rows, COLUMNS[cfg.mode], out, metadata=[cfg.metadata_line()])
    return out.getvalue()


def probe_samplers(tracer: Tracer, plan: Plan, sizes: Sizes, metrics: dict) -> None:
    """Each technique at f=0.1 and f=0.9 of a configuration-model graph of the
    workload's size n, and at f=0.9 of one of size n/2 for the growth ratio
    hi(n) / hi(n/2): near 2 means linear, near 4 quadratic.

    Forest fire at p <= 0.5 and snowball revive their stalled fire with a scan
    that is quadratic today; on every workload they run at the revival
    workload's size, so that the traced run ends within its time limit.
    """
    from crawlbias import (FIFO, assign_stub_indices, bfs, configuration_model,
                           degree_sequence_from_distribution, dfs, forest_fire,
                           largest_component_nodes, mhrw, random_walk, snowball,
                           stub_level_traversal, weighted_without_replacement)
    from crawlbias.experiments import parse_pk_spec
    law = parse_pk_spec(PK)
    graphs: dict[int, dict] = {}

    def graph(n: int) -> dict:
        if n not in graphs:
            rng = random.Random(f"{plan.seed}:graph:{n}")
            with tracer.span("generate.configuration_model"):
                g = configuration_model(degree_sequence_from_distribution(law, n), rng)
            with tracer.span("graph.largest_component_nodes"):
                comp = largest_component_nodes(g)
            graphs[n] = {"g": g, "comp": comp, "degs": g.degrees()}
        return graphs[n]

    def stub(st: dict, s: int, b: int, rng: random.Random):
        return stub_level_traversal(st["degs"], st["assignment"], s, FIFO, b, restart=True)

    # name, revives, call(graph state, start node, budget, rng)
    table = [
        ("bfs", False, lambda st, s, b, rng: bfs(st["g"], s, b)),
        ("dfs", False, lambda st, s, b, rng: dfs(st["g"], s, b)),
        ("ff_p0.7", False, lambda st, s, b, rng: forest_fire(st["g"], s, b, 0.7, rng)),
        ("ff_p0.5", True, lambda st, s, b, rng: forest_fire(st["g"], s, b, 0.5, rng)),
        ("ff_p0.3", True, lambda st, s, b, rng: forest_fire(st["g"], s, b, 0.3, rng)),
        ("sbs_n2", True, lambda st, s, b, rng: snowball(st["g"], s, b, 2, rng)),
        ("sbs_n1", True, lambda st, s, b, rng: snowball(st["g"], s, b, 1, rng)),
        ("rw", False, lambda st, s, b, rng: random_walk(st["g"], s, b, rng)),
        ("mhrw", False, lambda st, s, b, rng: mhrw(st["g"], s, b, rng)),
        ("wwor", False, lambda st, s, b, rng: weighted_without_replacement(st["degs"], b, rng)),
        ("stub", False, stub),
    ]

    def one(name: str, call, n: int, f: float) -> float:
        st = graph(n)
        rng = random.Random(f"{plan.seed}:{name}:{n}:{f}")
        if name == "stub" and "assignment" not in st:
            st["assign_s"], st["assignment"] = repeat(
                tracer, "samplers.assign_stub_indices",
                lambda: assign_stub_indices(st["degs"], rng))
        start = st["comp"][rng.randrange(len(st["comp"]))]
        budget = max(1, round(f * n))
        return repeat(tracer, f"samplers.{name}", lambda: call(st, start, budget, rng),
                      min_total=0.5)[0]

    for name, revives, call in table:
        n = min(plan.nodes, sizes.revival_nodes) if revives else plan.nodes
        metrics[f"samplers.{name}.lo_s"] = (one(name, call, n, F_LO), "s")
        hi = one(name, call, n, F_HI)
        metrics[f"samplers.{name}.hi_s"] = (hi, "s")
        metrics[f"samplers.{name}.growth"] = (hi / one(name, call, max(2, n // 2), F_HI), "ratio")
    metrics["samplers.assign_stub_indices_s"] = (graph(plan.nodes)["assign_s"], "s")


def traced(plan: Plan, sizes: Sizes, tracer: Tracer, tally: Tally) -> dict:
    from crawlbias import (DegreeDistribution, assortativity, bfs, bfs_correct,
                           configuration_model, curve_rows, degree_sequence_from_distribution,
                           largest_component_nodes, load_edge_list, mean_q_of_f, random_walk,
                           rewire_to_assortativity, rmse_compare, rw_correct, t_of_f)
    from crawlbias.experiments import parse_pk_spec
    metrics: dict[str, tuple[float, str]] = {}
    refs = Refs(plan, sizes)

    # cli: interpreter start plus `import crawlbias.cli`, as every CLI run pays it
    imports = []
    for _ in range(5):
        with tracer.span("cli.import") as rec:
            res = run_process([sys.executable, "-c", "import crawlbias.cli"],
                              plan.graph_file.parent)
        tally.record([] if res.code == 0 else [f"import: exit {res.code}: {res.stderr}"])
        imports.append(rec[2] - rec[1])
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    # the workload's own pass in-process, untraced then traced, outputs checked
    with tracer.span("pass.untraced") as untraced:
        for run in plan.runs:
            experiment_call(run, None)
    outputs = {}
    with tracer.span("pass.traced") as traced_pass:
        for run in plan.runs:
            outputs[run.label] = experiment_call(run, tracer)
    for run in plan.runs:
        problems = check_output(run, outputs[run.label], refs)
        if run.label == "correction_2w" and outputs[run.label] != outputs["correction"]:
            problems.append("correction_2w: CSV differs from the serial correction CSV")
        tally.record(problems)
    untraced_s, traced_s = untraced[2] - untraced[1], traced_pass[2] - traced_pass[1]
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for run in extra_runs(plan, sizes):
        with tracer.span("pass.extra"):
            tally.record(check_output(run, experiment_call(run, tracer), refs))
    for fn in EXPERIMENT_FN.values():
        metrics[f"experiments.{fn}_s"] = (sum(tracer.durations(f"experiments.{fn}")), "s")
    metrics["experiments.write_rows_csv_s"] = (
        sum(tracer.durations("experiments.write_rows_csv")), "s")
    # bytes of graph pickled into replica jobs, computed: file sources ship the
    # whole graph with every bias/correction replica job; generated ones ship none
    loaded = load_edge_list(str(plan.graph_file))
    graph_bytes = len(pickle.dumps(loaded))
    job_bytes = sum(r.config["replicas"] * (graph_bytes if "file" in r.config["graph"]
                                            else len(pickle.dumps(None)))
                    for r in plan.runs if r.config["mode"] in ("bias", "correction"))
    metrics["experiments.job_graph_bytes"] = (job_bytes, "bytes")

    # graph
    for name, call in (("load_edge_list", lambda: load_edge_list(str(plan.graph_file))),
                       ("largest_component_nodes", lambda: largest_component_nodes(loaded)),
                       ("assortativity", lambda: assortativity(loaded))):
        metrics[f"graph.{name}_s"] = (repeat(tracer, f"graph.{name}", call)[0], "s")

    # generate, at the workload's node count
    law = parse_pk_spec(PK)
    t, seq = repeat(tracer, "generate.degree_sequence",
                    lambda: degree_sequence_from_distribution(law, plan.nodes))
    metrics["generate.degree_sequence_s"] = (t, "s")
    t, g = repeat(tracer, "generate.configuration_model",
                  lambda: configuration_model(seq, random.Random(plan.seed)))
    metrics["generate.configuration_model_s"] = (t, "s")
    t, rew = repeat(tracer, "generate.rewire", lambda: rewire_to_assortativity(
        g, 0.1, random.Random(plan.seed), tolerance=0.02), min_total=0.0)
    metrics["generate.rewire_s"] = (t, "s")
    metrics["generate.rewire_accept_ratio"] = (rew.accepted / rew.proposals, "ratio")

    probe_samplers(tracer, plan, sizes, metrics)

    # analytic, on the realized law of the workload's size
    model = DegreeDistribution.from_sequence(seq)
    for name, call in (("t_of_f", lambda: t_of_f(model, 0.5)),
                       ("mean_q_of_f", lambda: mean_q_of_f(model, F_HI)),
                       ("curve_rows", lambda: curve_rows(model, F_GRID))):
        metrics[f"analytic.{name}_s"] = (repeat(tracer, f"analytic.{name}", call,
                                                max_reps=50)[0], "s")

    # estimators, on the loaded input graph
    rng = random.Random(plan.seed)
    comp = largest_component_nodes(loaded)
    half = round(0.5 * loaded.node_count)
    trace = bfs(loaded, comp[rng.randrange(len(comp))], half)
    t, report = repeat(tracer, "estimators.bfs_correct",
                       lambda: bfs_correct(trace, len(trace) / loaded.node_count))
    metrics["estimators.bfs_correct_s"] = (t, "s")
    metrics["estimators.bfs_correct_iters"] = (report.iterations, "count")
    walk = random_walk(loaded, comp[rng.randrange(len(comp))], half, rng)
    metrics["estimators.rw_correct_s"] = (repeat(tracer, "estimators.rw_correct",
                                                 lambda: rw_correct(walk))[0], "s")
    x = [float(k) for k in loaded.degrees()]
    metrics["estimators.rmse_compare_s"] = (repeat(
        tracer, "estimators.rmse_compare",
        lambda: rmse_compare(loaded, x, sizes.compare_replicas, random.Random(plan.seed),
                             depth=sizes.compare_depth),
        min_total=0.0)[0], "s")

    for layer, t in sorted(tracer.self_times().items()):
        if layer in LAYERS:
            metrics[f"self.{layer}_s"] = (t, "s")
    return metrics


LAYERS = ("graph", "generate", "samplers", "analytic", "estimators", "experiments", "cli")


# --- command line ----------------------------------------------------------------

def env_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crawlbias").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"          # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stamp = env_stamp()
    lines = [f"env {json.dumps(stamp, sort_keys=True)}",
             f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}"]
    try:
        plan = make_plan(name, seed, work, sizes)
        if trace:
            tally, tracer = Tally(), Tracer()
            setup(plan, 1, tally)
            metrics = traced(plan, sizes, tracer, tally)
            spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans, stamp)
            lines.append(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
            lines += [f"metric {k} {v:.6g} {u} n=1" for k, (v, u) in metrics.items()]
        else:
            tally, metrics, more = end_to_end(plan, sizes, seconds)
            lines += more
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines += [f"problem {p}" for p in tally.problems[:20]]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crawlbias" / "cli.py").is_file():
        print(f"error: no crawlbias sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crawlbias
    if not Path(crawlbias.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported crawlbias from {crawlbias.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
