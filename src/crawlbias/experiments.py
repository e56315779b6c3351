"""Replicated desk-scale experiments with deterministic seeding and CSV output."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Sequence

from . import analytic
from .estimators import ConvergenceError, bfs_correct, rmse_compare, rw_correct
from .generate import (_TOLERANCE, configuration_model, degree_sequence_from_distribution,
                       rewire_to_assortativity)
from .graph import (DegreeDistribution, Graph, assortativity, degree_distribution,
                    induced_subgraph, largest_component_nodes, load_edge_list)
from .samplers import (SampleTrace, _check_start, _make_trace, bfs, dfs, forest_fire, mhrw,
                       random_walk, snowball, weighted_without_replacement)


class ConfigError(ValueError):
    """An experiment configuration is malformed."""


def derive_seed(master: int, replica: int, tag: str) -> int:
    """Per-replica, per-technique rng seed.

    First 8 bytes, big-endian, of sha256("{master}|{replica}|{tag}"): stable
    across platforms and runs, and any replica can be recomputed in isolation.
    """
    digest = hashlib.sha256(f"{master}|{replica}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def parse_pk_spec(spec: object) -> DegreeDistribution:
    """Degree-distribution shorthand used by configs and the CLI.

    regular:K              all nodes degree K
    bimodal:K1:K2:W1       degree K1 with fraction W1, K2 with 1-W1
    powerlaw:G:KMIN:KMAX   p_k proportional to k^-G on KMIN..KMAX
    {"1": 0.5, "3": 0.5}   explicit fractions (JSON object, or a string holding one)
    """
    if not isinstance(spec, (str, Mapping)):
        raise ConfigError(f"cannot parse degree distribution from {spec!r}")
    try:
        doc = json.loads(spec) if isinstance(spec, str) and spec.lstrip().startswith("{") else spec
        if isinstance(doc, Mapping):
            return DegreeDistribution({int(k): float(p) for k, p in doc.items()})
        parts = doc.split(":")
        if parts[0] == "regular" and len(parts) == 2:
            return DegreeDistribution({int(parts[1]): 1.0})
        if parts[0] == "bimodal" and len(parts) == 4:
            k1, k2, w1 = int(parts[1]), int(parts[2]), float(parts[3])
            return DegreeDistribution({k1: w1, k2: 1.0 - w1})
        if parts[0] == "powerlaw" and len(parts) == 4:
            return truncated_power_law(float(parts[1]), int(parts[2]), int(parts[3]))
    except (TypeError, ValueError, OverflowError) as exc:  # ValueError: JSONDecodeError, ConfigError
        raise ConfigError(f"bad degree distribution spec {spec!r}: {exc}") from None
    raise ConfigError(f"bad degree distribution spec {spec!r}")


def truncated_power_law(gamma: float, k_min: int, k_max: int) -> DegreeDistribution:
    if k_min < 1 or k_max < k_min:
        raise ConfigError("power law needs 1 <= k_min <= k_max")
    weights = {k: k ** -gamma for k in range(k_min, k_max + 1)}
    return DegreeDistribution(weights, normalize=True)


class _Param(NamedTuple):
    """A technique's one parameter."""

    key: str                         # its key in a JSON technique entry
    short: str                       # its name in the tag and in sample's flag --NAME-SHORT
    what: str                        # what it must be, for error messages and --help
    ok: Callable[[object], bool]     # its type and range check
    default: float | int             # sample's value without the flag; its type is the flag's


class _Technique(NamedTuple):
    """run(g, start, budget, param, rng) makes one trace. law, one of traversal, walk,
    uniform walk and draw, sets a bias row's reference and correct's default method."""

    run: Callable[[Graph, int, int, object, random.Random], SampleTrace]
    param: _Param | None
    law: str


def _draw(technique: str, start_first: bool, g: Graph, start: int, budget: int,
          _param: None, rng: random.Random) -> SampleTrace:
    """wwor and stub race the degrees instead of crawling: wwor starts at its first
    draw; stub puts the start first, then the race order, as stub_level_traversal does."""
    _check_start(g, start, budget)
    nodes = weighted_without_replacement(g.degrees(), min(budget, g.node_count), rng)
    if start_first:
        nodes = [start, *(v for v in nodes if v != start)][:budget]
    return _make_trace(technique, g, nodes, False)


#: Every technique run_technique runs, by name: its runner, its parameter and its law.
TECHNIQUES = {
    "bfs": _Technique(lambda g, v, b, _, rng: bfs(g, v, b), None, "traversal"),
    "dfs": _Technique(lambda g, v, b, _, rng: dfs(g, v, b), None, "traversal"),
    "ff": _Technique(forest_fire, _Param("p", "p", "spread probability p, a number in (0, 1]",
                                         lambda p: isinstance(p, (int, float)) and 0 < p <= 1,
                                         0.5), "traversal"),
    "sbs": _Technique(snowball, _Param("names", "n", "referral count names, an integer >= 1",
                                       lambda n: isinstance(n, int) and n >= 1, 2), "traversal"),
    "rw": _Technique(lambda g, v, b, _, rng: random_walk(g, v, b, rng), None, "walk"),
    "mhrw": _Technique(lambda g, v, b, _, rng: mhrw(g, v, b, rng), None, "uniform walk"),
    "wwor": _Technique(partial(_draw, "wwor", False), None, "draw"),
    "stub": _Technique(partial(_draw, "stub", True), None, "draw"),
}


def _entry(table: Mapping, name: object, what: str):
    """table[name], the record of a technique or a mode, or a ConfigError."""
    try:
        return table[name]
    except (KeyError, TypeError):    # TypeError: a JSON name that is not hashable
        raise ConfigError(f"unknown {what} {name!r}") from None


@dataclass(frozen=True)
class TechniqueSpec:
    """One sampling technique plus its parameter, if it takes one."""

    name: str
    param: float | int | None = None

    def __post_init__(self) -> None:
        spec = _entry(TECHNIQUES, self.name, "technique").param
        if spec is None and self.param is not None:
            raise ConfigError(f"technique {self.name} takes no parameter, got {self.param!r}")
        if spec is not None and (isinstance(self.param, bool) or not spec.ok(self.param)):
            raise ConfigError(f"technique {self.name} needs its {spec.what}, got {self.param!r}")

    @property
    def tag(self) -> str:
        spec = TECHNIQUES[self.name].param
        if spec is None:
            return self.name
        value = f"{self.param:g}" if isinstance(spec.default, float) else self.param
        return f"{self.name}:{spec.short}={value}"

    @classmethod
    def from_json(cls, obj: object) -> "TechniqueSpec":
        if isinstance(obj, str):
            return cls(obj)
        if isinstance(obj, Mapping):
            name = obj.get("name", "")
            key = getattr(_entry(TECHNIQUES, name, "technique").param, "key", None)
            _check_keys(obj, ("name", key) if key else ("name",), f"technique {name} entry")
            return cls(name, obj.get(key))
        raise ConfigError(f"bad technique entry {obj!r}")


@dataclass(frozen=True)
class GraphSource:
    kind: str                    # generate | file
    pk: str | None = None
    nodes: int = 0
    target_assortativity: float | None = None
    path: str | None = None
    # pk parsed once, here, so a bad spec fails when the source is made
    law: DegreeDistribution | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "generate":
            if not self.pk or self.nodes < 1:
                raise ConfigError("generate source needs pk and nodes >= 1")
            r = self.target_assortativity
            if r is not None and not -1.0 <= r <= 1.0:
                raise ConfigError(f"assortativity must lie in [-1, 1], got {r!r}")
            object.__setattr__(self, "law", parse_pk_spec(self.pk))
        elif self.kind == "file":
            if not self.path:
                raise ConfigError("file source needs a path")
            if self.target_assortativity is not None:
                raise ConfigError("a file source takes no assortativity target: "
                                  "only a generated graph is rewired")
        else:
            raise ConfigError(f"unknown graph source {self.kind!r}")

    def build(self, rng: random.Random | None) -> tuple[Graph, float | None]:
        """The file with the default cleanup (a file draws nothing: rng None), or a
        configuration-model graph on the rounded degree sequence of pk, rewired to
        target_assortativity when set; and the r its rewiring reached (None when not
        rewired). A rewiring that misses its target raises ConfigError, naming that r."""
        if self.kind == "file":
            return load_edge_list(self.path), None
        g = configuration_model(degree_sequence_from_distribution(self.law, self.nodes), rng)
        target = self.target_assortativity
        if target is None:
            return g, None
        result = rewire_to_assortativity(g, target, rng)
        if not result.reached:
            raise ConfigError(f"rewiring toward assortativity {target:g} reached r = "
                              f"{result.achieved_r:.4g}, outside the tolerance {_TOLERANCE:g}")
        return result.graph, result.achieved_r


@dataclass
class ExperimentConfig:
    """Mirror of the JSON config document: source holds its graph section, and
    every other field is the top-level key of its name, with that key's default."""

    source: GraphSource
    techniques: list[TechniqueSpec] = field(default_factory=list)
    f_grid: list[float] = field(default_factory=list)
    replicas: int = 1
    seed: int = 0
    workers: int = 1
    mode: str = "bias"           # a key of MODES
    assortativity_targets: list[float] = field(default_factory=list)
    depth: int = 2

    def __post_init__(self) -> None:
        """Every value rule is checked here, so a runner gets a config it can run.
        Which keys a mode reads is checked in from_json, where the JSON arrives."""
        reads = _entry(MODES, self.mode, "mode").reads
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if any(not 0.0 < f <= 1.0 for f in self.f_grid):
            raise ConfigError("coverage values must lie in (0, 1]")
        if any(not -1.0 <= r <= 1.0 for r in self.assortativity_targets):
            raise ConfigError(f"assortativity_targets must lie in [-1, 1], "
                              f"got {self.assortativity_targets!r}")
        # a list the mode reads needs an entry; its rows are keyed by value (a technique
        # by its tag, a sweep target also by the tag that seeds it), so a repeated key
        # would only repeat rows
        for key in reads:
            values = getattr(self, key, None)
            if not isinstance(values, list):
                continue
            if not values:
                raise ConfigError(f"mode {self.mode!r} needs at least one entry in {key}")
            seen = set()
            for value in (v.tag if isinstance(v, TechniqueSpec) else v for v in values):
                keys = {value, _target_tag(value)} if key == "assortativity_targets" else {value}
                if not seen.isdisjoint(keys):
                    raise ConfigError(f"{key} names {value!r} more than once")
                seen |= keys
        if "assortativity_targets" in reads and self.source.kind != "generate":
            raise ConfigError(f"mode {self.mode!r} needs a generated graph source")

    @classmethod
    def from_json(cls, doc: Mapping) -> "ExperimentConfig":
        if not isinstance(doc, Mapping):
            raise ConfigError("config must be a JSON object")
        mode = _typed("mode", doc.get("mode", cls.mode), str, "a string")
        _check_reads(doc, mode)
        graph = doc.get("graph")
        if not isinstance(graph, Mapping):
            raise ConfigError("config needs a graph section")
        _check_keys(graph, ("generate", "file"), "graph section")
        if len(graph) != 1:
            raise ConfigError("graph section needs exactly one of 'generate' or 'file'")
        if "generate" in graph:
            gen = graph["generate"]
            _check_keys(gen, ("pk", "nodes", "assortativity"), "graph.generate")
            source = GraphSource("generate", pk=_pk_to_str(gen.get("pk")),
                                 nodes=_integer("nodes", gen.get("nodes", GraphSource.nodes)),
                                 target_assortativity=_typed(
                                     "assortativity", gen.get("assortativity"),
                                     (int, float, type(None)), "a number or null"))
        else:
            source = GraphSource("file", path=_typed("graph.file", graph["file"], str, "a string"))
        return cls(source=source, mode=mode,
                   **{key: _READERS[key](key, value) for key, value in doc.items()
                      if key in _READERS})

    def metadata_line(self) -> str:
        """The keys the mode reads, with the values that ran; techniques by their
        tags. workers is left out: no output depends on it, so serial and pool
        runs write the same line."""
        reads = _entry(MODES, self.mode, "mode").reads
        gen = {"pk": self.source.pk, "nodes": self.source.nodes}
        if _REWIRED in reads:
            gen["assortativity"] = self.source.target_assortativity
        echo = {key: getattr(self, key) for key in reads
                if key not in ("graph", _REWIRED, "workers")}
        echo["graph"] = ({"generate": gen} if self.source.kind == "generate"
                         else {"file": self.source.path})
        return "config " + json.dumps(echo, sort_keys=True, default=lambda tech: tech.tag)


def _check_reads(doc: Mapping, mode: str) -> None:
    """A key the mode does not read, a typo among them, fails naming the mode,
    instead of running with the key ignored."""
    reads = _entry(MODES, mode, "mode").reads
    unread = set(doc) - set(reads)
    graph = doc.get("graph")
    gen = graph.get("generate") if isinstance(graph, Mapping) else None
    if isinstance(gen, Mapping) and "assortativity" in gen and _REWIRED not in reads:
        unread.add(_REWIRED)
    if unread:
        raise ConfigError(f"mode {mode!r} does not read key(s) "
                          f"{', '.join(map(repr, sorted(unread)))}; it reads {', '.join(reads)}")


def _check_keys(obj: object, known: Sequence[str], where: str) -> None:
    """A typo in a key must fail, not run silently with the default."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}; "
                          f"known keys: {', '.join(known)}")


def _typed(key: str, value: object, kinds: type | tuple[type, ...], what: str):
    """A config value must already have its JSON type: nothing is coerced, and
    true or false is no number."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _integer(key: str, value: object) -> int:
    return _typed(key, value, int, "an integer")


def _numbers(key: str, values: object) -> list[float]:
    return [float(_typed(f"{key} entry", v, (int, float), "a number"))
            for v in _typed(key, values, list, "a list")]


def _techniques(key: str, entries: object) -> list[TechniqueSpec]:
    return [TechniqueSpec.from_json(t) for t in _typed(key, entries, list, "a list")]


#: The reader of each top-level config key but graph and mode, which from_json reads
#: itself: reader(key, value) gives the ExperimentConfig field of that name its value.
_READERS = {"techniques": _techniques, "f_grid": _numbers, "replicas": _integer,
            "seed": _integer, "workers": _integer, "assortativity_targets": _numbers,
            "depth": _integer}


def _pk_to_str(pk: object) -> str:
    if isinstance(pk, str):
        return pk
    if isinstance(pk, Mapping):
        return json.dumps(pk, sort_keys=True)
    raise ConfigError(f"bad pk entry {pk!r}")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return ExperimentConfig.from_json(doc)


def run_technique(g: Graph, component: Sequence[int], tech: TechniqueSpec,
                  budget: int, rng: random.Random) -> SampleTrace:
    """One sampling run. The start is drawn uniformly from component first for every
    technique, wwor too, which does not use it: seeded outputs depend on that draw.
    A graph without edges is refused before that draw, whatever the technique."""
    if not g.edge_count:
        raise ValueError("graph has no edges to draw from")
    start = component[rng.randrange(len(component))]
    return TECHNIQUES[tech.name].run(g, start, budget, tech.param, rng)


# --- one replica pipeline ------------------------------------------------------
#
# A set-up is a graph plus its sorted largest component, where crawls start. A
# file source has one set-up, shared by every replica; the loader keeps only
# the largest component, so it is the whole graph, range(n). A generated source
# has none shared, and each replica builds its graph from its own "graph" seed.
# Every graph and law a mode uses comes from the three functions below.

Setup = tuple[Graph, Sequence[int]]


def _setup(g: Graph) -> Setup:
    return g, sorted(largest_component_nodes(g))


def _shared_setup(cfg: ExperimentConfig) -> Setup | None:
    if cfg.source.kind != "file":
        return None
    g = cfg.source.build(None)[0]
    return g, range(g.node_count)


def _replica_setup(cfg: ExperimentConfig, replica: int, shared: Setup | None) -> Setup:
    if shared is not None:
        return shared
    return _setup(cfg.source.build(random.Random(derive_seed(cfg.seed, replica, "graph")))[0])


def _reference_law(cfg: ExperimentConfig, shared: Setup | None) -> DegreeDistribution:
    """The degree law the replicas realize, behind analytic_mean, rw_mean and true_mean.

    A generated graph follows the rounded degree sequence of pk (rewiring keeps
    every degree), not the continuous pk; a file graph follows its own degrees.
    """
    if shared is not None:
        return degree_distribution(shared[0])
    return DegreeDistribution.from_sequence(
        degree_sequence_from_distribution(cfg.source.law, cfg.source.nodes))


# set by the pool initializer, in pool workers only
_worker: tuple[Callable, Setup | None] | None = None


def _init_worker(fn: Callable, shared: Setup | None) -> None:
    global _worker
    _worker = (fn, shared)


def _run_in_worker(job: tuple[ExperimentConfig, int]) -> object:
    fn, shared = _worker
    return fn(*job, shared)


def _map_replicas(fn: Callable, cfg: ExperimentConfig, shared: Setup | None) -> list:
    """[fn(cfg, replica, shared) for every replica], in replica order.

    They run in one pool of min(workers, replicas, CPUs) processes, as a pool starts
    all of its workers at once, or in this process if that is 1. The shared set-up
    reaches each worker once, through the pool initializer, so a job carries only
    (cfg, replica); the result does not depend on the worker count.

    A replica is handed to the pool only when a worker is free, so once one fails
    no other starts: the pool's queue would run every job it holds. The error
    raised is the first failed replica's, as in a serial run.
    """
    workers = min(cfg.workers, cfg.replicas, os.cpu_count() or 1)
    if workers == 1:
        return [fn(cfg, r, shared) for r in range(cfg.replicas)]
    # only pool runs pay for the import
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    futures, running = [], set()
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(fn, shared)) as pool:
        for replica in range(cfg.replicas):
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() for future in done):
                    break
            futures.append(pool.submit(_run_in_worker, (cfg, replica)))
            running.add(futures[-1])
    return [future.result() for future in futures]


def _replica_cells(cell: Callable[[SampleTrace, int, int, int], object], cfg: ExperimentConfig,
                   replica: int, shared: Setup | None) -> dict[str, list]:
    """Per technique tag, cell(trace, k, n, budget) at each f's budget. trace is the
    technique's one run to the largest budget: its sample at f is the trace's prefix
    of k = min(budget, len(trace)) records. Coverages that share a budget would sample
    the same prefix, so they are refused."""
    g, component = _replica_setup(cfg, replica, shared)
    n = g.node_count
    budgets = [max(1, round(f * n)) for f in cfg.f_grid]
    first: dict[int, float] = {}
    for f, budget in zip(cfg.f_grid, budgets):
        if first.setdefault(budget, f) != f:
            raise ConfigError(f"f_grid values {first[budget]} and {f} both sample "
                              f"{budget} of {n} nodes")
    cells = {}
    for tech in cfg.techniques:
        rng = random.Random(derive_seed(cfg.seed, replica, tech.tag))
        trace = run_technique(g, component, tech, max(budgets), rng)
        cells[tech.tag] = [cell(trace, min(budget, len(trace)), n, budget) for budget in budgets]
    return cells


def _mean_cell(trace: SampleTrace, k: int, n: int, budget: int) -> tuple[float, bool]:
    """(mean sampled degree of the prefix, whether the trace fell short of budget)."""
    return sum(trace.degrees[:k]) / k, k < budget


#: The technique laws whose bias row takes a level of the degree law as its reference;
#: every other law takes the analytic curve.
_LEVELS = ("walk", "uniform walk")


def _curve(cfg: ExperimentConfig, law: DegreeDistribution) -> dict[float, float]:
    """mean_q_of_f(law, f) per f, when a technique takes the curve as its reference.
    It is solved before any replica runs, so an f that law cannot reach fails first."""
    if all(TECHNIQUES[tech.name].law in _LEVELS for tech in cfg.techniques):
        return {}
    return {f: analytic.mean_q_of_f(law, f) for f in cfg.f_grid}


def _bias_rows(cfg: ExperimentConfig, shared: Setup | None, law: DegreeDistribution,
               curve: dict[float, float]) -> list[dict[str, object]]:
    """Mean sampled degree per (technique, f) over the replicas; the reference of its law
    (a walk: rw_mean, a uniform walk: true_mean, otherwise curve[f]), rw_mean and
    true_mean of law; and how many replicas' traces fell short at that f."""
    results = _map_replicas(partial(_replica_cells, _mean_cell), cfg, shared)
    rw_mean = analytic.rw_expected(law)[1]
    true_mean = law.mean()
    references = dict(zip(_LEVELS, (rw_mean, true_mean)))
    rows = []
    for tech in cfg.techniques:
        reference = references.get(TECHNIQUES[tech.name].law)
        for f, cells in zip(cfg.f_grid, zip(*(result[tech.tag] for result in results))):
            vals = [v for v, _ in cells]
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            rows.append({
                "technique": tech.tag,
                "f": f,
                "replicas": len(vals),
                "empirical_mean": mean,
                "empirical_std": var ** 0.5,
                "analytic_mean": curve[f] if reference is None else reference,
                "rw_mean": rw_mean,
                "true_mean": true_mean,
                "flagged": sum(short for _, short in cells),
            })
    return rows


def run_bias_curves(cfg: ExperimentConfig) -> list[dict[str, object]]:
    """Mean sampled degree against coverage, per technique, with the
    analytic curve, the stationary walk level, and the true mean alongside."""
    shared = _shared_setup(cfg)
    law = _reference_law(cfg, shared)
    return _bias_rows(cfg, shared, law, _curve(cfg, law))


def _correction_cell(trace: SampleTrace, k: int, n: int, budget: int) -> dict[str, object]:
    """The sampled mean degree of the prefix, as _mean_cell gives it, and its corrected
    mean degree: rw_correct, and bfs_correct at its coverage f_real = k / n."""
    prefix = replace(trace, nodes=trace.nodes[:k], degrees=trace.degrees[:k], coverage=k / n)
    try:
        rep = bfs_correct(prefix, k / n)
        corrected, converged, iterations, residual = rep.mean, 1, rep.iterations, rep.residual
    except ConvergenceError as exc:            # recorded, not fatal
        corrected, converged, iterations, residual = None, 0, exc.iterations, exc.residual
    return {"sampled_mean": _mean_cell(trace, k, n, budget)[0],
            "rw_corrected": rw_correct(prefix).mean,
            "bfs_corrected": corrected, "converged": converged, "iterations": iterations,
            "residual": residual}


def run_correction_eval(cfg: ExperimentConfig) -> list[dict[str, object]]:
    """Sampled vs corrected mean degree of bfs samples at each coverage.

    Replica r corrects the prefixes of one bfs trace, the one bias mode runs for
    bfs at the same seed. Emits one row per (f, replica) plus an averaged row per
    f (replica='avg'); the true mean degree rides along in every row.
    """
    shared = _shared_setup(cfg)
    true_mean = _reference_law(cfg, shared).mean()
    results = [cells["bfs"] for cells in _map_replicas(
        partial(_replica_cells, _correction_cell),
        replace(cfg, techniques=[TechniqueSpec("bfs")]), shared)]

    rows: list[dict[str, object]] = []
    for replica, reps in enumerate(results):
        for f, row in zip(cfg.f_grid, reps):
            rows.append({"f": f, "replica": replica, **row, "true_mean": true_mean})
    for f, group in zip(cfg.f_grid, zip(*results)):
        ok = [r for r in group if r["converged"]]
        rows.append({
            "f": f,
            "replica": "avg",
            "sampled_mean": _avg(group, "sampled_mean"),
            "rw_corrected": _avg(group, "rw_corrected"),
            "bfs_corrected": _avg(ok, "bfs_corrected") if ok else None,
            "converged": len(ok),
            "iterations": _avg(group, "iterations"),
            "residual": None,
            "true_mean": true_mean,
        })
    return rows


def _avg(rows: Sequence[Mapping[str, object]], key: str) -> float:
    return sum(float(r[key]) for r in rows) / len(rows)


def run_compare(cfg: ExperimentConfig) -> list[dict[str, object]]:
    """Neighborhood estimator vs coverage-corrected traversal at equal sample sizes, on
    replica 0's largest component, where crawls start (a file's whole graph)."""
    g, component = _replica_setup(cfg, 0, _shared_setup(cfg))
    if len(component) < g.node_count:
        g = induced_subgraph(g, component)
    cmp_rng = random.Random(derive_seed(cfg.seed, 0, "compare"))
    return rmse_compare(g, g.degrees(), cfg.replicas, cmp_rng, depth=cfg.depth)


def run_analytic(cfg: ExperimentConfig) -> list[dict[str, object]]:
    """The predicted sampled degree at each coverage, for the reference law the
    other modes use: a generated source's rounded degree sequence, or a file's
    own degrees."""
    return analytic.curve_rows(_reference_law(cfg, _shared_setup(cfg)), cfg.f_grid)


def _target_tag(target: float) -> str:
    """The tag that seeds a sweep target's rewiring and rows: targets that share
    it would draw the same rows, so ExperimentConfig refuses them."""
    return f"{target:g}"


def run_assortativity_sweep(cfg: ExperimentConfig) -> list[dict[str, object]]:
    """Bias curves after rewiring one generated graph to each target r.

    Target r = 0 means the unrewired graph, whatever its r. Every other
    target goes through rewire_to_assortativity at its default tolerance; a
    base graph already within tolerance of a target is used as it is. A
    target the rewiring misses is reported in one row with rewire_ok=0, and
    its curve rows are skipped. Rewiring keeps every degree, so one
    reference law serves all targets.
    """
    law = _reference_law(cfg, None)
    curve = _curve(cfg, law)
    # the sweep rewires to its own targets only, so a source's target is not applied
    base = _replica_setup(replace(cfg, source=replace(cfg.source, target_assortativity=None)),
                          0, None)
    rows: list[dict[str, object]] = []
    for target in cfg.assortativity_targets:
        if target == 0.0:
            r = assortativity(base[0])
            g, achieved, ok = base[0], float("nan") if r is None else r, True
        else:
            rng = random.Random(derive_seed(cfg.seed, 0, f"rewire:{_target_tag(target)}"))
            result = rewire_to_assortativity(base[0], target, rng)
            g, achieved, ok = result.graph, result.achieved_r, result.reached
        rewire = {"target_r": target, "achieved_r": achieved, "rewire_ok": int(ok)}
        if not ok:
            rows.append(rewire)
            continue
        sub = replace(cfg, seed=derive_seed(cfg.seed, 0, f"sweep:{_target_tag(target)}"))
        for row in _bias_rows(sub, base if g is base[0] else _setup(g), law, curve):
            row.update(rewire)
            rows.append(row)
    return rows


def write_rows_csv(rows: Sequence[Mapping[str, object]], columns: Sequence[str],
                   out: IO[str], metadata: Sequence[str] = ()) -> None:
    """Deterministic CSV: '#' metadata lines, header, then rows in order."""
    for line in metadata:
        out.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(c)) for c in columns])


def _fmt_cell(v: object) -> str:
    """A cell's CSV text: None (a value the row does not have) is the empty cell."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# --- trace CSV round-trip -------------------------------------------------

def trace_to_csv(trace: SampleTrace, out: IO[str], labels: Sequence[int] | None = None,
                 rng_seed: int | None = None) -> None:
    """Write a trace as CSV with one '#' metadata line before the header.

    With labels, node ids (seed_node and the node column) are written as labels[id].
    Nothing reaches out unless trace_from_csv reads the text back, so a trace the
    reader would refuse fails here, with the reader's message.
    """
    def name(v: int) -> int:
        return labels[v] if labels is not None else v

    meta = (f"technique={trace.technique} seed_node={name(trace.seed_node)} "
            f"f={trace.coverage:.12g} with_replacement={str(trace.with_replacement).lower()} "
            f"revivals={trace.revivals}")
    if rng_seed is not None:
        meta += f" rng_seed={rng_seed}"
    xs = trace.x_values if trace.x_values is not None else [None] * len(trace.nodes)
    rows = [{"position": i, "node": name(v), "degree": k, "x_value": x}
            for i, (v, k, x) in enumerate(zip(trace.nodes, trace.degrees, xs))]
    buf = io.StringIO()
    write_rows_csv(rows, TRACE_COLUMNS, buf, metadata=[meta])
    trace_from_csv(buf.getvalue().splitlines())
    out.write(buf.getvalue())


def trace_from_csv(source: str | IO[str] | Iterable[str]) -> SampleTrace:
    """Read a trace written by trace_to_csv. Node ids are kept as written.

    The header must be trace_to_csv's, TRACE_COLUMNS, so that no column is read
    as another and no record is taken for the header; a '#' line's key=value
    tokens use TRACE_KEYS, each once. A value no estimator can use fails, naming its
    line and its column or key: positions count 0, 1, 2, ... in record order;
    degrees are integers >= 0; x_value is finite, on every row or on none; f lies
    in (0, 1]; with_replacement is true or false, and false (the default) lists each
    node once; rng_seed is an integer; seed_node must be the first record's node.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return trace_from_csv(fh)
    meta: dict[str, tuple[str, int]] = {}  # key -> (text, line)
    nodes: list[int] = []
    degrees: list[int] = []
    xs: list[float | None] = []
    first: dict[int, int] = {}  # node -> its first position
    repeat = ""                 # the first record that repeats a node
    header_seen = False
    for lineno, line in enumerate(source, 1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            for tok in text[1:].split():
                if "=" in tok:
                    key, val = tok.split("=", 1)
                    _check_keys({key: val}, TRACE_KEYS, f"trace line {lineno}")
                    if key in meta:
                        raise ValueError(f"line {lineno}: {key} is {val!r} here and "
                                         f"{meta[key][0]!r} on line {meta[key][1]}")
                    meta[key] = val, lineno
            continue
        if not header_seen:
            if text.split(",") != TRACE_COLUMNS:
                raise ValueError(f"trace header must be {','.join(TRACE_COLUMNS)}, "
                                 f"got {text!r}")
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"line {lineno}: malformed trace row: {text!r}")
        position, node, degree, x = parts
        at = f"line {lineno}:"
        _parse(f"{at} position", position, int, len(nodes).__eq__,
               f"{len(nodes)}: positions count 0, 1, 2, ... in record order")
        v = _parse(f"{at} node", node, int, None, "an integer")
        if first.setdefault(v, len(nodes)) != len(nodes) and not repeat:
            repeat = f"{at} node {v} is at positions {first[v]} and {len(nodes)}"
        nodes.append(v)
        degrees.append(_parse(f"{at} degree", degree, int, (0).__le__, "an integer >= 0"))
        xs.append(_parse(f"{at} x_value", x, float, math.isfinite, "a finite number")
                  if x else None)
    blank = xs.count(None)
    if 0 < blank < len(xs):
        raise ValueError(f"x_value is blank on {blank} of {len(xs)} trace rows; "
                         "fill it on every row or on none")

    def read(key: str, parse: Callable[[str], object], ok: Callable[[object], bool] | None,
             what: str, default: object) -> object:
        if key not in meta:
            return default
        return _parse(f"line {meta[key][1]}: {key}", meta[key][0], parse, ok, what)

    # f=nan, as trace_to_csv writes an unknown coverage, reads as no f
    coverage = read("f", float, lambda f: math.isnan(f) or 0.0 < f <= 1.0,
                    "a number in (0, 1]", math.nan)
    with_replacement = read("with_replacement", str, ("true", "false").__contains__,
                            "true or false", "false") == "true"
    if repeat and not with_replacement:
        raise ValueError(f"{repeat}, but only a with_replacement=true trace repeats a node")
    read("rng_seed", int, None, "an integer", None)
    trace = SampleTrace(read("technique", str, None, "", "unknown"), nodes, degrees,
                        with_replacement, coverage, x_values=None if blank else xs,
                        revivals=read("revivals", int, (0).__le__, "an integer >= 0", 0))
    read("seed_node", int, nodes[0].__eq__, f"the first record's node {nodes[0]}", None)
    return trace


def _parse(where: str, text: str, parse: Callable[[str], object],
           ok: Callable[[object], bool] | None, what: str) -> object:
    """parse(text), or a ValueError that names where the text stands and what it must be."""
    try:
        value = parse(text)
    except ValueError:
        pass
    else:
        if ok is None or ok(value):
            return value
    raise ValueError(f"{where} {text!r} is not {what}")


TRACE_COLUMNS = ["position", "node", "degree", "x_value"]
TRACE_KEYS = ("technique", "seed_node", "f", "with_replacement", "revivals", "rng_seed")
BIAS_COLUMNS = ["technique", "f", "replicas", "empirical_mean", "empirical_std",
                "analytic_mean", "rw_mean", "true_mean", "flagged"]
CORRECTION_COLUMNS = ["f", "replica", "sampled_mean", "bfs_corrected", "rw_corrected",
                      "true_mean", "converged", "iterations", "residual"]
SWEEP_COLUMNS = ["target_r", "achieved_r", "rewire_ok", "technique", "f", "replicas",
                 "empirical_mean", "analytic_mean", "rw_mean", "true_mean"]
COMPARE_COLUMNS = ["method", "mean_estimate", "rmse", "replicas", "diag_iterations",
                   "diag_residual"]
ANALYTIC_COLUMNS = ["f", "t", "mean_q", "q_k_json"]


class Mode(NamedTuple):
    command: str                 # the CLI subcommand that runs the mode
    run: Callable[[ExperimentConfig], list[dict[str, object]]]
    columns: list[str]
    reads: tuple[str, ...]       # the config keys run reads; a nested key is dotted


# The rewiring target of a generated source: read by every mode whose graph comes
# from GraphSource.build, but not by the sweep, which rewires to its own targets.
_REWIRED = "graph.generate.assortativity"

MODES = {
    "bias": Mode("curves", run_bias_curves, BIAS_COLUMNS,
                 ("graph", "mode", _REWIRED, "techniques", "f_grid", "replicas", "seed",
                  "workers")),
    "correction": Mode("curves", run_correction_eval, CORRECTION_COLUMNS,
                       ("graph", "mode", _REWIRED, "f_grid", "replicas", "seed", "workers")),
    "assortativity": Mode("curves", run_assortativity_sweep, SWEEP_COLUMNS,
                          ("graph", "mode", "techniques", "f_grid", "replicas", "seed",
                           "workers", "assortativity_targets")),
    "analytic": Mode("curves", run_analytic, ANALYTIC_COLUMNS, ("graph", "mode", "f_grid")),
    "compare": Mode("compare", run_compare, COMPARE_COLUMNS,
                    ("graph", "mode", _REWIRED, "replicas", "seed", "depth")),
}
