"""Experiment harness: configs, seeding, runners, CSV output, and the CLI."""

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from crawlbias import (FIFO, ConvergenceError, DegreeDistribution, Graph, SampleTrace,
                       assign_stub_indices, assortativity, bfs_correct, cli, configuration_model,
                       degree_distribution, degree_sequence_from_distribution,
                       exact_step_distribution, largest_component_nodes, load_edge_list,
                       mean_q_of_f, rmse_compare, stub_level_traversal, trace_from_csv)
from crawlbias.experiments import (BIAS_COLUMNS, CORRECTION_COLUMNS, MODES, SWEEP_COLUMNS,
                                   TECHNIQUES, ConfigError, ExperimentConfig, GraphSource,
                                   TechniqueSpec, derive_seed, parse_pk_spec,
                                   run_analytic, run_assortativity_sweep, run_bias_curves,
                                   run_compare, run_correction_eval, run_technique,
                                   truncated_power_law, write_rows_csv)


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(42, 0, "bfs")
    assert a == derive_seed(42, 0, "bfs")          # pure function of the inputs
    others = {derive_seed(42, r, t) for r in range(5) for t in ("bfs", "rw")}
    assert len(others) == 10
    assert derive_seed(42, 0, "bfs") != derive_seed(43, 0, "bfs")
    assert 0 <= a < 2 ** 64


def test_parse_pk_spec_forms():
    assert parse_pk_spec("regular:4").get(4) == pytest.approx(1.0)
    b = parse_pk_spec("bimodal:1:3:0.25")
    assert b.get(1) == pytest.approx(0.25)
    assert b.get(3) == pytest.approx(0.75)
    p = parse_pk_spec("powerlaw:2.5:2:50")
    assert p.get(2) > p.get(3) > p.get(50) > 0
    assert parse_pk_spec({"1": 0.5, "3": 0.5}).get(3) == pytest.approx(0.5)
    assert parse_pk_spec(' {"1": 0.5, "3": 0.5}') == parse_pk_spec({"1": 0.5, "3": 0.5})


def test_parse_pk_spec_errors():
    for bad in ("regular", "bimodal:1:2", "powerlaw:2.5:0:50", "triangle:3", 17):
        with pytest.raises(ConfigError):
            parse_pk_spec(bad)
    for bad in ('{"2": 0.5, "3": ', '{"2": null}', '{"a": 1.0}', {"2": [0.5]}, {"2": 0.9}):
        with pytest.raises(ConfigError, match="bad degree distribution spec"):
            parse_pk_spec(bad)
    # a weight that is not a finite number is refused, naming its degree, not dropped
    for bad, degree in (('{"1": 0.5, "3": 0.5, "2": NaN}', 2), ('{"1": 0.5, "3": Infinity}', 3),
                        ({"1": 0.5, "4": float("nan")}, 4), ("bimodal:1:3:nan", 1)):
        with pytest.raises(ConfigError, match=f"fraction for degree {degree} is not a finite"):
            parse_pk_spec(bad)
    # power-law weights past the float range: one overflows, or only their sum does
    for bad in ("powerlaw:-1000:2:100", "powerlaw:-154.1:1:100"):
        with pytest.raises(ConfigError, match="bad degree distribution spec"):
            parse_pk_spec(bad)


def test_truncated_power_law_normalized():
    d = truncated_power_law(2.5, 2, 100)
    assert abs(sum(p for _, p in d.items()) - 1.0) < 1e-12
    assert d.get(2) / d.get(4) == pytest.approx(2 ** 2.5)


def test_technique_spec_tags_and_validation():
    assert TechniqueSpec("bfs").tag == "bfs"
    assert TechniqueSpec("ff", 0.7).tag == "ff:p=0.7"
    assert TechniqueSpec("sbs", 3).tag == "sbs:n=3"
    assert TechniqueSpec("sbs", 1000000).tag == "sbs:n=1000000"   # an integer, never 1e+06
    with pytest.raises(ConfigError):
        TechniqueSpec("ff")                      # missing p
    with pytest.raises(ConfigError):
        TechniqueSpec("sbs")                     # missing names
    with pytest.raises(ConfigError):
        TechniqueSpec("bfs", 0.3)                # bfs takes no parameter
    with pytest.raises(ConfigError):
        TechniqueSpec("teleport")
    with pytest.raises(ConfigError, match="bad technique entry 5"):
        TechniqueSpec.from_json(5)               # neither a name nor an object
    assert TechniqueSpec("ff", 1).tag == "ff:p=1"
    assert TechniqueSpec.from_json({"name": "ff", "p": 0.7}) == TechniqueSpec("ff", 0.7)
    assert TechniqueSpec.from_json({"name": "sbs", "names": 1000000}).tag == "sbs:n=1000000"
    # a parameter must have its type and range, and only its own technique takes it
    for name, kwargs, field_name in (("sbs", {"names": 1.5}, "names"),
                                     ("sbs", {"names": True}, "names"),
                                     ("sbs", {"names": 0}, "names"),
                                     ("ff", {"p": "0.5"}, "p"),
                                     ("ff", {"p": True}, "p"),
                                     ("ff", {"p": 1.5}, "p"),
                                     ("ff", {"p": 0.0}, "p"),
                                     ("ff", {"p": float("nan")}, "p"),
                                     ("bfs", {"p": 0.3}, "p"),
                                     ("wwor", {"names": 2}, "names"),
                                     ("ff", {"p": 0.5, "names": 2}, "names"),
                                     ("sbs", {"names": 2, "p": 0.5}, "p")):
        with pytest.raises(ConfigError, match=rf"\b{field_name}\b"):
            TechniqueSpec.from_json({"name": name, **kwargs})


def test_config_from_json_and_validation():
    doc = {
        "graph": {"generate": {"pk": "regular:3", "nodes": 100}},
        "techniques": ["bfs", {"name": "ff", "p": 0.5}],
        "f_grid": [0.2, 0.6],
        "replicas": 3,
        "seed": 9,
    }
    cfg = ExperimentConfig.from_json(doc)
    assert cfg.source.kind == "generate"
    assert [t.tag for t in cfg.techniques] == ["bfs", "ff:p=0.5"]
    assert cfg.mode == "bias"
    meta = cfg.metadata_line()
    assert json.loads(meta[len("config "):])["seed"] == 9

    for mutate in (
        lambda d: d.pop("graph"),
        lambda d: d.__setitem__("graph", {}),
        lambda d: d.__setitem__("f_grid", []),
        lambda d: d.__setitem__("f_grid", [1.5]),
        lambda d: d.__setitem__("replicas", 0),
        lambda d: d.__setitem__("mode", "dance"),
        # unknown keys fail instead of running with a default
        lambda d: d.__setitem__("replica", 7),
        lambda d: d.__setitem__("out_dir", "results"),
        lambda d: d["graph"].__setitem__("files", "g.txt"),
        lambda d: d["graph"].__setitem__("file", "g.txt"),
        lambda d: d["graph"]["generate"].__setitem__("node", 100),
        lambda d: d["techniques"][1].__setitem__("prob", 0.5),
        # technique parameters are checked when the config is read, not in a replica
        lambda d: d["techniques"][1].__setitem__("p", "0.5"),
        lambda d: d["techniques"][1].__setitem__("p", 1.5),
        lambda d: d["techniques"].append({"name": "sbs", "names": 1.5}),
        lambda d: d["techniques"].append({"name": "bfs", "p": 0.3}),
        # the bias mode crawls with at least one technique
        lambda d: d.__setitem__("techniques", []),
    ):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(bad)

    # a value of the wrong JSON type fails naming its key: it is neither coerced
    # (true as 1 replica, 1.9 as 1) nor left to fail later with a TypeError. Each
    # case runs in a mode that reads its key.
    gen = ("graph", "generate")
    sweep = dict(json.loads(json.dumps(doc)), mode="assortativity", assortativity_targets=[0.1])
    compare = {"graph": doc["graph"], "mode": "compare"}
    reader = {"depth": compare, "assortativity_targets": sweep}
    for where, key, value in (
        ((), "replicas", True), ((), "replicas", 1.9), (gen, "nodes", 10.7),
        ((), "seed", 1.5), ((), "f_grid", [True]), ((), "f_grid", "0.5"),
        ((), "workers", "2"), ((), "depth", None), (gen, "assortativity", "0.1"),
        ((), "assortativity_targets", [0.1, None]), ((), "assortativity_targets", 0.1),
        ((), "techniques", "bfs"), (("graph",), "file", 5),
    ):
        bad = json.loads(json.dumps(reader.get(key, doc)))
        if key == "file":
            bad["graph"] = {}
        section = bad
        for name in where:
            section = section[name]
        section[key] = value
        with pytest.raises(ConfigError, match=rf"{key}.*must be"):
            ExperimentConfig.from_json(bad)
    # a list the mode reads holds at least one entry and names each value once (a
    # technique by its tag), and compare's depth is >= 1: each fails naming its key
    for base, key, value, message in (
        (doc, "techniques", [], "mode 'bias' needs at least one entry in techniques"),
        (doc, "f_grid", [], "mode 'bias' needs at least one entry in f_grid"),
        (sweep, "techniques", [], "mode 'assortativity' needs at least one entry in techniques"),
        (sweep, "assortativity_targets", [],
         "mode 'assortativity' needs at least one entry in assortativity_targets"),
        (doc, "techniques", ["bfs", {"name": "ff", "p": 0.5}, "bfs"],
         "techniques names 'bfs' more than once"),
        (doc, "techniques", [{"name": "ff", "p": 0.5}, {"name": "ff", "p": 0.5000000001}],
         "techniques names 'ff:p=0.5' more than once"),
        (doc, "f_grid", [0.2, 0.6, 0.2], "f_grid names 0.2 more than once"),
        (doc, "f_grid", [1, 0.5, 1.0], "f_grid names 1.0 more than once"),
        (sweep, "assortativity_targets", [0.1, 0, -0.1, 0.0],
         "assortativity_targets names 0.0 more than once"),
        # a sweep target's rewiring and rows are seeded by its :g tag, so targets
        # that share it would write the same rows twice
        (sweep, "assortativity_targets", [0.1, 0.1000000001],
         "assortativity_targets names 0.1000000001 more than once"),
        (compare, "depth", 0, "depth must be >= 1"),
        (doc, "workers", 0, "workers must be >= 1"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_json(dict(json.loads(json.dumps(base)), **{key: value}))
    # a document, a graph.generate section or a pk of the wrong JSON type
    for bad, message in (
            ([doc], "config must be a JSON object"),
            (dict(doc, graph={"generate": "regular:3"}), "graph.generate must be a JSON object"),
            (dict(doc, graph={"generate": {"pk": 17, "nodes": 100}}), "bad pk entry 17")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_json(bad)
    # ... while an integer stands for a number and null for no rewiring
    ok = json.loads(json.dumps(doc))
    ok.update(f_grid=[1])
    ok["graph"]["generate"]["assortativity"] = None
    cfg = ExperimentConfig.from_json(ok)
    assert cfg.f_grid == [1.0] and cfg.source.target_assortativity is None
    cfg = ExperimentConfig.from_json(dict(sweep, assortativity_targets=[0]))
    assert cfg.assortativity_targets == [0.0]

    # a key the mode does not read fails naming the key and the mode: correction and
    # compare crawl with bfs only, and a sweep rewires to its own targets
    for mode in ("correction", "compare"):
        bad = dict(json.loads(json.dumps(doc)), mode=mode)
        with pytest.raises(ConfigError, match=rf"mode '{mode}'.*techniques"):
            ExperimentConfig.from_json(bad)
        del bad["techniques"]
        if mode == "compare":
            del bad["f_grid"]
        assert ExperimentConfig.from_json(bad).mode == mode
    assert ExperimentConfig.from_json(sweep).mode == "assortativity"
    sweep["graph"]["generate"]["assortativity"] = 0.2
    with pytest.raises(ConfigError, match="mode 'assortativity'.*graph.generate.assortativity"):
        ExperimentConfig.from_json(sweep)


def test_graph_source_validation():
    with pytest.raises(ConfigError):
        GraphSource("generate", pk="regular:3", nodes=0)
    with pytest.raises(ConfigError):
        GraphSource("file")
    with pytest.raises(ConfigError):
        GraphSource("download", path="x")
    # only a generated graph is rewired: a file source refuses a target it would ignore
    with pytest.raises(ConfigError, match="file source takes no assortativity target"):
        GraphSource("file", path="g.txt", target_assortativity=0.5)


def _bias_cfg(**overrides):
    base = dict(
        source=GraphSource("generate", pk="bimodal:2:6:0.5", nodes=300),
        techniques=[TechniqueSpec("bfs"), TechniqueSpec("rw")],
        f_grid=[0.2, 0.6],
        replicas=4,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_bias_curves_rows():
    rows = run_bias_curves(_bias_cfg())
    assert len(rows) == 4  # two techniques x two coverages
    for row in rows:
        assert set(BIAS_COLUMNS) <= set(row)
        assert row["replicas"] == 4
        assert row["true_mean"] == pytest.approx(4.0)
        assert row["empirical_mean"] > 0
    bfs_rows = [r for r in rows if r["technique"] == "bfs"]
    # heavier nodes surface first, so the early mean exceeds the late mean
    assert bfs_rows[0]["empirical_mean"] > bfs_rows[1]["empirical_mean"] - 0.5


def test_run_bias_curves_deterministic_and_worker_invariant():
    r1 = run_bias_curves(_bias_cfg())
    r2 = run_bias_curves(_bias_cfg())
    r3 = run_bias_curves(_bias_cfg(workers=2))
    assert r1 == r2 == r3


def test_bias_references_follow_realized_law():
    # at 1,000 nodes the rounded degree sequence of this law differs from the
    # continuous pk, and the generated graphs follow the rounded sequence
    pk = "powerlaw:2.5:2:100"
    cfg = _bias_cfg(source=GraphSource("generate", pk=pk, nodes=1000),
                    techniques=[TechniqueSpec("bfs")], f_grid=[0.1, 0.5], replicas=2)
    continuous = parse_pk_spec(pk)
    realized = DegreeDistribution.from_sequence(degree_sequence_from_distribution(continuous, 1000))
    assert abs(realized.mean() - continuous.mean()) > 0.01
    for row in run_bias_curves(cfg):
        assert row["analytic_mean"] == mean_q_of_f(realized, row["f"])
        assert row["true_mean"] == realized.mean()


def test_bias_flagged_counts_short_replicas_per_f():
    # about half of these graphs is their largest component, where crawls start:
    # every bfs trace reaches 5% coverage and none reaches 90%
    cfg = _bias_cfg(source=GraphSource("generate", pk="powerlaw:2.5:1:100", nodes=2000),
                    techniques=[TechniqueSpec("bfs")], f_grid=[0.05, 0.9], replicas=3,
                    seed=3)
    assert [row["flagged"] for row in run_bias_curves(cfg)] == [0, 3]


def test_run_correction_eval_rows():
    cfg = _bias_cfg(techniques=[], mode="correction", f_grid=[0.3])
    rows = run_correction_eval(cfg)
    per_replica = [r for r in rows if r["replica"] != "avg"]
    avg = [r for r in rows if r["replica"] == "avg"]
    assert len(per_replica) == 4 and len(avg) == 1
    for row in rows:
        assert set(CORRECTION_COLUMNS) <= set(row)
    assert avg[0]["converged"] == 4
    assert abs(avg[0]["bfs_corrected"] - 4.0) < abs(avg[0]["sampled_mean"] - 4.0)


def test_run_correction_eval_file_source_worker_invariant(tmp_path):
    edge_file = tmp_path / "g.txt"
    assert _run_cli(["generate", "--pk", "bimodal:2:6:0.5", "--nodes", "300",
                     "--rng-seed", "3", "--out", str(edge_file)]) == 0
    cfg = _bias_cfg(techniques=[], mode="correction", f_grid=[0.2, 0.7], replicas=3,
                    source=GraphSource("file", path=str(edge_file)))
    serial = run_correction_eval(cfg)
    assert serial == run_correction_eval(replace(cfg, workers=2))
    assert len(serial) == 3 * 2 + 2


def test_correction_mode_records_a_replica_that_does_not_converge(monkeypatch):
    # a replica whose correction does not converge keeps its row, with the solver's
    # diagnostics, and the avg row averages bfs_corrected over the converged ones only
    from crawlbias import experiments

    cfg = _bias_cfg(techniques=[], mode="correction", f_grid=[0.3], replicas=3)
    clean = run_correction_eval(cfg)

    def fails_on(failing):
        calls = iter(range(cfg.replicas))   # one f per replica: call r is replica r

        def correct(trace, f_real):
            if next(calls) in failing:
                raise ConvergenceError("no bracket", 7, 0.25)
            return bfs_correct(trace, f_real)
        return correct

    monkeypatch.setattr(experiments, "bfs_correct", fails_on({1}))
    rows = run_correction_eval(cfg)
    assert rows[0] == clean[0] and rows[2] == clean[2]
    assert [rows[1][key] for key in ("converged", "bfs_corrected", "iterations",
                                     "residual")] == [0, None, 7, 0.25]
    assert rows[1]["sampled_mean"] == clean[1]["sampled_mean"]
    out = io.StringIO()
    write_rows_csv(rows, CORRECTION_COLUMNS, out)
    failed = next(row for row in csv.DictReader(io.StringIO(out.getvalue()))
                  if row["replica"] == "1")
    assert failed["bfs_corrected"] == "" and failed["converged"] == "0"
    avg = rows[3]
    assert avg["replica"] == "avg" and avg["converged"] == 2
    assert avg["bfs_corrected"] == (clean[0]["bfs_corrected"] + clean[2]["bfs_corrected"]) / 2
    assert avg["sampled_mean"] == clean[3]["sampled_mean"]
    # none converges: the avg row has no corrected mean
    monkeypatch.setattr(experiments, "bfs_correct", fails_on({0, 1, 2}))
    avg = run_correction_eval(cfg)[3]
    assert avg["converged"] == 0 and avg["bfs_corrected"] is None


def test_coverages_that_share_a_budget_fail_when_the_graph_is_built(tmp_path):
    # README's example, run in this process: on 500 nodes, 0.2 and 0.2000000001 both
    # sample 100, from a generated source and from a file source
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("".join(f"{v} {(v + 1) % 500}\n" for v in range(500)))
    message = "f_grid values 0.2 and 0.2000000001 both sample 100 of 500 nodes"
    for source in (GraphSource("generate", pk="powerlaw:2.5:2:50", nodes=500),
                   GraphSource("file", path=str(cycle))):
        cfg = _bias_cfg(source=source, techniques=[TechniqueSpec("bfs")],
                        f_grid=[0.2, 0.2000000001, 0.201], replicas=1)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_bias_curves(cfg)


def test_every_technique_run_is_a_prefix_of_a_longer_run():
    # bias and correction mode read each f's sample as the prefix of one run to the
    # largest budget. On this multigraph, with small components and many degree-1
    # nodes, forest fire at p=0.3 and snowball at n=1 revive dead fires.
    d = DegreeDistribution({1: 0.45, 2: 0.25, 3: 0.15, 6: 0.1, 12: 0.05})
    g = configuration_model(degree_sequence_from_distribution(d, 300), random.Random(3))
    start = min(largest_component_nodes(g))
    defaults = [(name, None if t.param is None else t.param.default)
                for name, t in TECHNIQUES.items()]
    for name, param in defaults + [("ff", 0.3), ("sbs", 1)]:
        run = TECHNIQUES[name].run
        revivals = 0
        for x in range(4):
            full = run(g, start, 270, param, random.Random(x))
            revivals += full.revivals
            for budget in (1, 2, 17, 100, 269):
                assert run(g, start, budget, param, random.Random(x)).nodes == \
                    full.nodes[:budget], (name, param, budget, x)
        if (name, param) in (("ff", 0.3), ("sbs", 1)):
            assert revivals > 0


def test_correction_mode_corrects_prefixes_of_bias_modes_bfs_trace(tmp_path):
    edge_file = tmp_path / "g.txt"
    assert _run_cli(["generate", "--pk", "bimodal:2:6:0.5", "--nodes", "300",
                     "--rng-seed", "3", "--out", str(edge_file)]) == 0
    # about half of each generated graph is its largest component, where crawls
    # start: every bfs trace reaches 5% coverage and falls short at 90%
    sparse = GraphSource("generate", pk="powerlaw:2.5:1:100", nodes=2000)
    for source, f_grid in ((GraphSource("file", path=str(edge_file)), [0.2, 0.5, 0.7]),
                           (sparse, [0.05, 0.9])):
        bias = _bias_cfg(source=source, techniques=[TechniqueSpec("bfs")], f_grid=f_grid,
                         replicas=3, seed=3)
        corr = replace(bias, mode="correction", techniques=[])
        avg = [row for row in run_correction_eval(corr) if row["replica"] == "avg"]
        assert [row["sampled_mean"] for row in avg] == \
            [row["empirical_mean"] for row in run_bias_curves(bias)]
    # at f = 0.9 each replica corrects the whole short trace, at its own coverage
    short = [row for row in run_correction_eval(corr)
             if row["f"] == 0.9 and row["replica"] != "avg"]
    assert len(short) == 3
    for row in short:
        g = sparse.build(random.Random(derive_seed(3, row["replica"], "graph")))
        trace = run_technique(g, sorted(largest_component_nodes(g)), TechniqueSpec("bfs"),
                              round(0.9 * g.node_count),
                              random.Random(derive_seed(3, row["replica"], "bfs")))
        assert len(trace) < round(0.9 * g.node_count)
        assert row["bfs_corrected"] == bfs_correct(trace, len(trace) / g.node_count).mean


def test_map_replicas_starts_no_more_workers_than_it_can_use(monkeypatch):
    import concurrent.futures
    import os

    from crawlbias import experiments

    started = []

    class SerialPool(concurrent.futures.Executor):
        """Records its max_workers and runs each job here, when it is submitted, as a
        process pool would soon after: no process starts."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except ValueError as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments, "_worker", None)
    cfg = _bias_cfg(techniques=[TechniqueSpec("bfs")], f_grid=[0.3], replicas=3)
    serial = run_bias_curves(cfg)
    # (CPUs, workers, replicas) -> the pool's size, or none when one process is all it uses
    for cpus, workers, replicas, pool in ((8, 100000, 3, [3]), (2, 100000, 3, [2]),
                                          (8, 2, 3, [2]), (None, 8, 3, []), (8, 100000, 1, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        rows = run_bias_curves(replace(cfg, workers=workers, replicas=replicas))
        assert started == pool
        assert rows == (serial if replicas == 3 else run_bias_curves(replace(cfg, replicas=1)))

    # a failed replica stops the pool: no replica starts after it, and its error
    # propagates, the first failed replica's as in a serial run
    ran = []

    def fail_from_1(cfg, replica, shared):
        ran.append(replica)
        if replica >= 1:
            raise ValueError(f"replica {replica} failed")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for workers in (1, 2):
        ran.clear()
        with pytest.raises(ValueError, match="replica 1 failed"):
            experiments._map_replicas(fail_from_1, replace(cfg, workers=workers, replicas=6),
                                      None)
        assert ran == [0, 1]


def test_unreachable_coverage_fails_before_any_replica_runs(monkeypatch):
    # a fifth of these nodes is isolated, so no crawl covers more than 0.8 of the graph
    from crawlbias import experiments

    def never(*args):
        raise AssertionError("ran before the coverage was checked")

    monkeypatch.setattr(experiments, "_map_replicas", never)
    monkeypatch.setattr(experiments, "rewire_to_assortativity", never)
    bias = _bias_cfg(source=GraphSource("generate", pk='{"0": 0.2, "3": 0.8}', nodes=100),
                     f_grid=[0.5, 0.9])
    sweep = replace(bias, mode="assortativity", assortativity_targets=[0.0, 0.1])
    for run, cfg in ((run_bias_curves, bias), (run_assortativity_sweep, sweep)):
        with pytest.raises(ValueError, match=r"coverage 0\.9 outside reachable range"):
            run(cfg)
    # walks take a level of the law as their reference, not the curve, so they run there
    monkeypatch.undo()
    walks = run_bias_curves(replace(bias, techniques=[TechniqueSpec("rw"), TechniqueSpec("mhrw")]))
    assert [(r["technique"], r["f"]) for r in walks] == [("rw", 0.5), ("rw", 0.9),
                                                         ("mhrw", 0.5), ("mhrw", 0.9)]
    assert all(r["analytic_mean"] == r["rw_mean" if r["technique"] == "rw" else "true_mean"]
               for r in walks)


def test_run_compare_rows(tmp_path):
    cfg = _bias_cfg(techniques=[], mode="compare", replicas=6)
    rows = run_compare(cfg)
    methods = {r["method"] for r in rows}
    assert methods == {"arb-half_radius", "bfs-corrected"}
    # a file source is compared on the loaded file, with degrees as x
    edge_file = tmp_path / "g.txt"
    g = cfg.source.build(random.Random(derive_seed(cfg.seed, 0, "graph")))
    edge_file.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    on_file = run_compare(replace(cfg, source=GraphSource("file", path=str(edge_file))))
    loaded = load_edge_list(str(edge_file))
    assert on_file == rmse_compare(loaded, [float(k) for k in loaded.degrees()], 6,
                                   random.Random(derive_seed(cfg.seed, 0, "compare")), depth=2)


def test_compare_runs_on_the_largest_component(tmp_path):
    # a tenth of these nodes have degree 0, outside the largest component, where the
    # crawls of every mode start: compare draws its seeds there too, so no seed is an
    # isolated node and both estimates are the component's mean degree, 3
    cfg, out = tmp_path / "cfg.json", tmp_path / "cmp.csv"
    cfg.write_text(json.dumps({"graph": {"generate": {"pk": {"0": 0.1, "3": 0.9},
                                                      "nodes": 1000}},
                               "mode": "compare", "replicas": 32, "seed": 1}))
    assert _run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
    assert [r["method"] for r in rows] == ["arb-half_radius", "bfs-corrected"]
    assert [float(r["mean_estimate"]) for r in rows] == pytest.approx([3.0, 3.0], abs=1e-12)


def test_analytic_mode_reports_the_law_bias_mode_references():
    # nodes sets the rounded degree sequence every simulated mode references, so the
    # analytic row at f is bias mode's analytic_mean for the same graph section
    means = []
    for nodes in (10, 10000):
        source = GraphSource("generate", pk="powerlaw:2.5:2:100", nodes=nodes)
        bias = _bias_cfg(source=source, techniques=[TechniqueSpec("bfs")], f_grid=[0.1],
                         replicas=1)
        [row] = run_analytic(replace(bias, mode="analytic"))
        assert row["mean_q"] == run_bias_curves(bias)[0]["analytic_mean"]
        means.append(row["mean_q"])
    assert means == pytest.approx([3.7156, 9.3082], abs=1e-4)


def test_wwor_refuses_a_graph_without_edges():
    # no generated source or loaded file makes such a graph, but run_technique takes any;
    # it refuses one for every technique, with one message, before it draws the start
    for name, tech in TECHNIQUES.items():
        spec = TechniqueSpec(name, tech.param and tech.param.default)
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="graph has no edges to draw from"):
            run_technique(Graph([[], []]), [0], spec, 1, rng)
        assert rng.getstate() == state, name


def test_run_assortativity_sweep_rows():
    cfg = _bias_cfg(
        techniques=[TechniqueSpec("bfs")],
        f_grid=[0.1],
        replicas=3,
        mode="assortativity",
        assortativity_targets=[-0.25, 0.0, 0.25, -0.5],
    )
    rows = run_assortativity_sweep(cfg)
    # swaps stop this graph near r = -0.33: the missed target gets one row, no curve rows
    missed = rows.pop()
    assert missed["target_r"] == -0.5 and missed["rewire_ok"] == 0
    assert set(missed) == {"target_r", "achieved_r", "rewire_ok"}
    assert abs(missed["achieved_r"] + 0.5) > 0.02
    by_target = {}
    for r in rows:
        assert set(SWEEP_COLUMNS) <= set(r)
        by_target.setdefault(r["target_r"], []).append(r)
    assert set(by_target) == {-0.25, 0.0, 0.25}
    for target, grp in by_target.items():
        assert all(r["rewire_ok"] == 1 for r in grp)
        if target != 0.0:
            assert all(abs(r["achieved_r"] - target) <= 0.02 for r in grp)


def test_run_assortativity_sweep_worker_invariant():
    cfg = _bias_cfg(techniques=[TechniqueSpec("bfs"), TechniqueSpec("rw")], replicas=3,
                    mode="assortativity", assortativity_targets=[-0.2, 0.0])
    serial = run_assortativity_sweep(cfg)
    assert serial == run_assortativity_sweep(replace(cfg, workers=2))
    assert len(serial) == 2 * 2 * 2


def test_sweep_requires_targets_and_generated_source():
    with pytest.raises(ConfigError):
        _bias_cfg(mode="assortativity")
    with pytest.raises(ConfigError):
        _bias_cfg(mode="assortativity", assortativity_targets=[0.1],
                  source=GraphSource("file", path="whatever.txt"))
    # the sweep reads its own targets only: a rewiring target on the source is not applied
    cfg = _bias_cfg(techniques=[TechniqueSpec("bfs")], replicas=1, mode="assortativity",
                    assortativity_targets=[0.0])
    rewired = replace(cfg, source=GraphSource("generate", pk="bimodal:2:6:0.5", nodes=300,
                                              target_assortativity=0.3))
    assert run_assortativity_sweep(rewired) == run_assortativity_sweep(cfg)


def test_bad_pk_fails_when_the_config_is_read_in_every_mode():
    # the source parses pk once, when it is made, so no mode meets a bad spec later
    for mode in ("bias", "correction", "compare", "assortativity", "analytic"):
        doc = {"graph": {"generate": {"pk": "powerlaw:2.5:oops", "nodes": 50}}, "mode": mode,
               **({} if mode == "compare" else {"f_grid": [0.5]})}
        with pytest.raises(ConfigError, match="bad degree distribution spec"):
            ExperimentConfig.from_json(doc)


def test_write_rows_csv_quoting_and_floats():
    out = io.StringIO()
    rows = [{"a": 1.0 / 3.0, "b": 'say "hi", twice', "c": 5}]
    write_rows_csv(rows, ["a", "b", "c"], out, metadata=["note one"])
    text = out.getvalue()
    assert text.startswith("# note one\n")
    parsed = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
    assert parsed[0]["b"] == 'say "hi", twice'
    assert float(parsed[0]["a"]) == pytest.approx(1 / 3)
    assert "0.333333333333" in text  # %.12g formatting


# --- CLI ---------------------------------------------------------------------

def _stub_scan_reference(g, component, budget, rng):
    """run_technique's stub branch as it was: a full stub-level scan on a fresh matching."""
    seed = component[rng.randrange(len(component))]
    degs = g.degrees()
    _, trace = stub_level_traversal(degs, assign_stub_indices(degs, rng), seed, FIFO, budget,
                                    restart=True)
    return trace


def test_run_technique_stub_follows_stub_scan_law():
    # after its seed, the stub scan discovers the other nodes by degree-weighted draws
    # without replacement, which is the law of draws 1..3 with the seed's degree zeroed
    degrees = [1, 1, 2, 2, 3, 3, 4, 6]
    seed = 2
    g = configuration_model(degrees, random.Random(0))
    assert g.degrees() == degrees
    zeroed = [0 if v == seed else k for v, k in enumerate(degrees)]
    exact = [exact_step_distribution(zeroed, step) for step in (1, 2, 3)]
    runs = 40000
    stub = TechniqueSpec("stub")
    for run, rng in ((lambda r: run_technique(g, [seed], stub, 4, r), random.Random(5)),
                     (lambda r: _stub_scan_reference(g, [seed], 4, r), random.Random(6))):
        counts = [Counter() for _ in range(3)]
        for _ in range(runs):
            trace = run(rng)
            assert trace.nodes[0] == trace.seed_node == seed
            assert len(trace.nodes) == 4
            for tally, v in zip(counts, trace.nodes[1:]):
                tally[v] += 1
        for tally, law in zip(counts, exact):
            for v in range(len(degrees)):
                assert abs(tally[v] / runs - law[v]) < 0.01


def _run_cli(args):
    return cli.main(args)


def test_cli_generate_stats_sample_correct(tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    assert _run_cli(["generate", "--pk", "bimodal:2:6:0.5", "--nodes", "300",
                     "--rng-seed", "3", "--out", str(edge_file)]) == 0
    stats_file = tmp_path / "stats.csv"
    assert _run_cli(["stats", str(edge_file), "--out", str(stats_file)]) == 0
    capsys.readouterr()
    assert _run_cli(["stats", str(edge_file)]) == 0      # --out defaults to stdout, '-'
    assert capsys.readouterr().out == stats_file.read_text()
    row = next(csv.DictReader(stats_file.read_text().splitlines()))
    assert row["nodes"] == "300"
    assert float(row["mean_degree"]) == pytest.approx(4.0, rel=0.05)

    trace_file = tmp_path / "trace.csv"
    assert _run_cli(["sample", "--edgelist", str(edge_file), "--technique", "bfs",
                     "--budget", "60", "--rng-seed", "5", "--out", str(trace_file)]) == 0
    lines = trace_file.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 62  # metadata + header + 60 records

    out_file = tmp_path / "corr.csv"
    assert _run_cli(["correct", "--trace", str(trace_file), "--method", "bfs",
                     "--out", str(out_file)]) == 0
    row = next(csv.DictReader(out_file.read_text().splitlines()))
    assert row["method"] == "bfs-corrected"
    assert float(row["corrected_mean"]) < float(row["sampled_mean"])


def test_cli_generate_header_states_the_rewired_r(tmp_path):
    # without --assortativity the header is the one it always was; with it, the header
    # adds the target and the r of the graph written below it
    plain, rewired = tmp_path / "plain.txt", tmp_path / "rewired.txt"
    args = ["generate", "--pk", "bimodal:2:6:0.5", "--nodes", "300", "--rng-seed", "3"]
    assert _run_cli([*args, "--out", str(plain)]) == 0
    assert plain.read_text().split("\n", 1)[0] == "# pk bimodal:2:6:0.5 nodes 300 rng_seed 3"
    assert _run_cli([*args, "--assortativity", "-0.2", "--out", str(rewired)]) == 0
    words = rewired.read_text().split("\n", 1)[0].split()
    assert words[:9] == ["#", "pk", "bimodal:2:6:0.5", "nodes", "300", "rng_seed", "3",
                         "target_r", "-0.2"]
    assert words[9] == "achieved_r" and len(words) == 11
    achieved = float(words[10])
    assert abs(achieved + 0.2) <= 0.02
    assert achieved == pytest.approx(assortativity(load_edge_list(str(rewired), raw=True)),
                                     abs=1e-11)


def test_a_missed_rewiring_target_exits_2_and_names_it(tmp_path, capsys):
    # this law on 2000 nodes cannot be rewired to r = -0.9 (it stops near -0.45): no
    # graph is written, and no run goes on as if its graph had the target's r
    pk = "powerlaw:2.5:2:100"
    missed = r"assortativity -0\.9 reached r = -0\.\d+, outside the tolerance 0\.02"
    edge_file = tmp_path / "g.txt"
    assert _run_cli(["generate", "--pk", pk, "--nodes", "2000", "--rng-seed", "1",
                     "--assortativity", "-0.9", "--out", str(edge_file)]) == 2
    assert re.search(missed, capsys.readouterr().err)
    assert not edge_file.exists()
    cfg, out = tmp_path / "cfg.json", tmp_path / "bias.csv"
    cfg.write_text(json.dumps({"graph": {"generate": {"pk": pk, "nodes": 2000,
                                                      "assortativity": -0.9}},
                               "techniques": ["bfs"], "f_grid": [0.5], "replicas": 1,
                               "seed": 1}))
    assert _run_cli(["curves", "--config", str(cfg), "--out", str(out)]) == 2
    assert re.search(missed, capsys.readouterr().err)
    assert not out.exists()


def test_cli_sample_from_pk(tmp_path):
    trace_file = tmp_path / "t.csv"
    assert _run_cli(["sample", "--pk", "regular:3", "--nodes", "40", "--technique", "rw",
                     "--budget", "25", "--rng-seed", "1", "--out", str(trace_file)]) == 0
    body = [l for l in trace_file.read_text().splitlines()
            if not l.startswith(("#", "position"))]
    assert len(body) == 25


def test_every_technique_records_its_start_first():
    # a trace states its start once, as its first record: no field repeats it
    assert [f.name for f in fields(SampleTrace)] == [
        "technique", "nodes", "degrees", "with_replacement", "coverage", "x_values", "revivals"]
    g = configuration_model([1, 1, 2, 2, 3, 3, 4, 6], random.Random(0))
    for name, tech in TECHNIQUES.items():
        spec = TechniqueSpec(name, tech.param.default if tech.param else None)
        trace = run_technique(g, [2], spec, 5, random.Random(1))
        assert trace.seed_node == trace.nodes[0]
        assert trace.nodes[0] == 2 or name == "wwor"  # wwor starts at its first draw


def test_cli_sample_seed_node_is_a_file_id(tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("43 7\n7 12\n12 43\n5 43\n90 5\n")  # dense ids 0..4 differ from these
    for technique in ("bfs", "ff", "sbs", "stub"):
        trace_file = tmp_path / f"{technique}.csv"
        assert _run_cli(["sample", "--edgelist", str(edge_file), "--technique", technique,
                         "--budget", "5", "--seed-node", "12", "--out", str(trace_file)]) == 0
        lines = trace_file.read_text().splitlines()
        assert "seed_node=12" in lines[0].split()
        assert lines[2].split(",")[1] == "12"
    assert _run_cli(["sample", "--edgelist", str(edge_file), "--technique", "bfs",
                     "--budget", "5", "--seed-node", "3"]) == 2  # a dense id, not a file id
    assert "unknown node 3" in capsys.readouterr().err


def test_cli_wwor_trace_seed_node_is_sampled(tmp_path):
    trace_file = tmp_path / "t.csv"
    assert _run_cli(["sample", "--pk", "powerlaw:2.5:2:50", "--nodes", "300", "--technique",
                     "wwor", "--budget", "10", "--seed-node", "3", "--rng-seed", "2",
                     "--out", str(trace_file)]) == 0
    trace = trace_from_csv(str(trace_file))
    assert trace.seed_node == trace.nodes[0]


def test_cli_curves_bias_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"generate": {"pk": "bimodal:2:6:0.5", "nodes": 200}},
        "techniques": ["bfs", "wwor"],
        "f_grid": [0.25, 0.75],
        "replicas": 3,
        "seed": 21,
    }))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run_cli(["curves", "--config", str(cfg), "--out", str(out1)]) == 0
    assert _run_cli(["curves", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the bias mode echoes every key it reads but workers, as it always has
    assert out1.read_text().splitlines()[0] == (
        '# config {"f_grid": [0.25, 0.75], "graph": {"generate": {"assortativity": null, '
        '"nodes": 200, "pk": "bimodal:2:6:0.5"}}, "mode": "bias", "replicas": 3, "seed": 21, '
        '"techniques": ["bfs", "wwor"]}')
    rows = list(csv.DictReader(l for l in out1.read_text().splitlines() if not l.startswith("#")))
    assert len(rows) == 4
    assert {r["technique"] for r in rows} == {"bfs", "wwor"}


def test_cli_curves_analytic_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"generate": {"pk": "bimodal:1:3:0.5", "nodes": 10}},
        "f_grid": [0.6875],
        "mode": "analytic",
    }))
    out = tmp_path / "an.csv"
    assert _run_cli(["curves", "--config", str(cfg), "--out", str(out)]) == 0
    row = next(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
    assert float(row["mean_q"]) == pytest.approx(25 / 11, abs=1e-6)
    assert float(row["t"]) == pytest.approx(0.5, abs=1e-6)
    q = json.loads(row["q_k_json"])
    assert q["1"] == pytest.approx(4 / 11, abs=1e-9)
    # a file source gives its own degrees: 1, 2, 2 and 3 here
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("0 1\n1 2\n2 0\n0 3\n")
    cfg.write_text(json.dumps({"graph": {"file": str(edge_file)}, "f_grid": [0.5],
                               "mode": "analytic"}))
    assert _run_cli(["curves", "--config", str(cfg), "--out", str(out)]) == 0
    row = next(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
    law = DegreeDistribution({1: 0.25, 2: 0.5, 3: 0.25})
    assert float(row["mean_q"]) == pytest.approx(mean_q_of_f(law, 0.5), abs=1e-11)


def test_cli_curves_json_pk_object(tmp_path):
    pk = {"2": 0.5, "6": 0.5}
    for mode, column in (("bias", "analytic_mean"), ("analytic", "mean_q")):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({
            "graph": {"generate": {"pk": pk, "nodes": 200}},
            "f_grid": [0.5], "mode": mode,
            **({"techniques": ["bfs"], "replicas": 2, "seed": 4} if mode == "bias" else {}),
        }))
        out = tmp_path / f"{mode}.csv"
        assert _run_cli(["curves", "--config", str(cfg), "--out", str(out)]) == 0
        row = next(csv.DictReader(l for l in out.read_text().splitlines()
                                  if not l.startswith("#")))
        # 200 nodes realize the two classes exactly, so both laws agree here
        assert float(row[column]) == pytest.approx(mean_q_of_f(parse_pk_spec(pk), 0.5))


def test_curves_and_compare_are_one_command(tmp_path, capsys):
    # the config alone decides what runs: both names write the same bytes in every
    # mode, and neither takes a second seed
    graph = {"generate": {"pk": "bimodal:2:6:0.5", "nodes": 150}}
    docs = {"bias": {"techniques": ["bfs", "wwor"], "f_grid": [0.3], "replicas": 2, "seed": 4},
            "correction": {"f_grid": [0.3], "replicas": 2, "seed": 4},
            "assortativity": {"techniques": ["bfs"], "f_grid": [0.3], "replicas": 1,
                              "seed": 4, "assortativity_targets": [0.1]},
            "analytic": {"f_grid": [0.3]},
            "compare": {"replicas": 2, "seed": 4, "depth": 2}}
    for mode, doc in docs.items():
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"graph": graph, "mode": mode, **doc}))
        outs = []
        for command in ("curves", "compare"):
            outs.append(tmp_path / f"{mode}-{command}.csv")
            assert _run_cli([command, "--config", str(cfg), "--out", str(outs[-1])]) == 0
            with pytest.raises(SystemExit) as exit_:
                _run_cli([command, "--config", str(cfg), "--rng-seed", "0"])
            assert exit_.value.code == 2
            assert "unrecognized arguments: --rng-seed" in capsys.readouterr().err
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().startswith("# config {")


def test_cli_correction_output_is_worker_invariant(tmp_path):
    # the '#' line included: no output depends on the worker count
    edge_file = tmp_path / "g.txt"
    assert _run_cli(["generate", "--pk", "bimodal:2:6:0.5", "--nodes", "300",
                     "--rng-seed", "3", "--out", str(edge_file)]) == 0
    outs = []
    for workers in (1, 2):
        cfg = tmp_path / f"w{workers}.json"
        cfg.write_text(json.dumps({"graph": {"file": str(edge_file)}, "mode": "correction",
                                   "f_grid": [0.2, 0.7], "replicas": 3, "seed": 5,
                                   "workers": workers}))
        outs.append(tmp_path / f"w{workers}.csv")
        assert _run_cli(["curves", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().startswith("# config {")


def test_cli_correct_bfs_without_coverage_asks_for_f(tmp_path, capsys):
    trace_file = tmp_path / "t.csv"
    trace_file.write_text("position,node,degree,x_value\n0,0,3,\n1,1,2,\n2,2,4,\n")
    assert _run_cli(["correct", "--trace", str(trace_file), "--method", "bfs"]) == 2
    assert "--f" in capsys.readouterr().err
    # a NaN --f is the f given, and out of range, not a missing f
    assert _run_cli(["correct", "--trace", str(trace_file), "--method", "bfs", "--f", "nan"]) == 2
    assert capsys.readouterr().err == "error: f_real must lie in (0, 1]\n"
    assert _run_cli(["correct", "--trace", str(trace_file), "--method", "bfs",
                     "--f", "0.5", "--out", str(tmp_path / "c.csv")]) == 0
    # on a trace with x, sampled_mean is the plain mean of the x it corrects, not of the degrees
    trace_file.write_text("position,node,degree,x_value\n0,0,3,10\n1,1,1,20\n2,2,2,30\n")
    out = tmp_path / "x.csv"
    assert _run_cli(["correct", "--trace", str(trace_file), "--method", "bfs",
                     "--f", "0.5", "--out", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert float(row["sampled_mean"]) == 20.0
    assert float(row["corrected_mean"]) == pytest.approx(
        bfs_correct(trace_from_csv(str(trace_file)), 0.5).mean, rel=1e-11)


def test_cli_compare_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"generate": {"pk": "bimodal:2:6:0.5", "nodes": 150}},
        "replicas": 5,
        "seed": 2,
        "depth": 3,
        "mode": "compare",
    }))
    out = tmp_path / "cmp.csv"
    assert _run_cli(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    meta = out.read_text().splitlines()[0]
    assert json.loads(meta[len("# config "):])["depth"] == 3
    methods = [r["method"] for r in
               csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#"))]
    assert "arb-half_radius" in methods and "bfs-corrected" in methods


def _cli_process(flags, argv, stdout):
    # stdout buffered, as Python's default is: a small output then reaches the
    # pipe only when the run flushes it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, *flags, "-m", "crawlbias.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": src})


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]])
def test_cli_exits_quietly_when_its_reader_closes_stdout(flags):
    # a reader that stops after one line, as head -1 does: the writer's next write
    # past the pipe buffer fails with EPIPE, which ends the run with exit 0 and
    # nothing on stderr, also where any warning is an error
    with _cli_process(flags, ["generate", "--pk", "powerlaw:2.5:2:100", "--nodes", "20000",
                              "--rng-seed", "1"], subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"# pk powerlaw:2.5:2:100")
    assert (code, err) == (0, b"")


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]])
def test_cli_exits_quietly_when_stdout_has_no_reader(flags):
    # a small output, all of it in the buffer when the command returns, written to
    # a pipe whose reader is already gone: the EPIPE comes from the run's own flush,
    # and still ends it with exit 0 and nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _cli_process(flags, ["generate", "--pk", "regular:2", "--nodes", "10"],
                          write_end) as proc:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
    finally:
        os.close(write_end)
    assert (code, err) == (0, b"")


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert _run_cli(["stats", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert _run_cli(["curves", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"graph": {"generate": {"pk": "regular:3", "nodes": 50}},
                               "techniques": ["bfs"], "f_grid": [0.5], "replica": 7}))
    assert _run_cli(["curves", "--config", str(bad)]) == 2
    assert _run_cli(["sample", "--pk", "regular:3", "--technique", "bfs",
                     "--budget", "4"]) == 2  # missing --nodes
    malformed = tmp_path / "edges.txt"
    malformed.write_text("1 2 3\n")
    assert _run_cli(["stats", str(malformed)]) == 2
    # wwor rejects what the traversals reject: an empty budget, an unknown start node
    for extra in (["--budget", "0"], ["--budget", "4", "--seed-node", "500"]):
        assert _run_cli(["sample", "--pk", "regular:3", "--nodes", "20",
                         "--technique", "wwor", *extra]) == 2
    # ... and a law that rounds to a graph without edges, which has no first draw
    assert _run_cli(["sample", "--pk", '{"0": 0.9, "2": 0.1}', "--nodes", "1",
                     "--technique", "wwor", "--budget", "1", "--seed-node", "0"]) == 2
    assert "degree law rounds to no edges at 1 nodes" in capsys.readouterr().err
    # such a law fails, naming the rounding, before generate, sample or a config
    # builds a graph: 5% on degree 1 rounds to no node of 10
    none_pk, rounds = {"0": 0.95, "1": 0.05}, "degree law rounds to no edges at 10 nodes"
    none_file = tmp_path / "none.txt"
    assert _run_cli(["generate", "--pk", json.dumps(none_pk), "--nodes", "10",
                     "--out", str(none_file)]) == 2
    assert rounds in capsys.readouterr().err and not none_file.exists()
    assert _run_cli(["sample", "--pk", json.dumps(none_pk), "--nodes", "10",
                     "--technique", "bfs", "--budget", "3"]) == 2
    assert rounds in capsys.readouterr().err
    bad.write_text(json.dumps({"graph": {"generate": {"pk": none_pk, "nodes": 10}},
                               "techniques": ["bfs"], "f_grid": [0.5]}))
    assert _run_cli(["curves", "--config", str(bad)]) == 2
    assert rounds in capsys.readouterr().err
    # a malformed JSON pk is named as a bad spec
    assert _run_cli(["generate", "--pk", '{"2": 0.5, "3": ', "--nodes", "5"]) == 2
    assert "bad degree distribution spec" in capsys.readouterr().err
    # so are a NaN weight and power-law weights past the float range, and no graph is written
    for pk, named in (('{"1": 0.5, "3": 0.5, "2": NaN}', "degree 2 is not a finite number"),
                      ("powerlaw:-1000:2:100", "bad degree distribution spec"),
                      ("powerlaw:-154.1:1:100", "fractions sum past the largest float")):
        assert _run_cli(["generate", "--pk", pk, "--nodes", "10", "--out", str(none_file)]) == 2
        assert named in capsys.readouterr().err and not none_file.exists()
    # sample hands --ff-p to ff only, so its default never reaches another technique,
    # and an out-of-range value fails as a config error
    assert _run_cli(["sample", "--pk", "regular:3", "--nodes", "20", "--technique", "ff",
                     "--ff-p", "1.5", "--budget", "4"]) == 2
    assert "spread probability p" in capsys.readouterr().err
    # --ff-p and --sbs-n belong to ff and sbs: naming one elsewhere fails and names it
    tri = tmp_path / "tri.txt"
    tri.write_text("0 1\n1 2\n2 0\n")
    for flag, value, technique in (("--ff-p", "1.5", "bfs"), ("--sbs-n", "2", "ff")):
        assert _run_cli(["sample", "--edgelist", str(tri), "--technique", technique,
                         flag, value, "--budget", "2"]) == 2
        assert flag in capsys.readouterr().err
    # a config value of the wrong JSON type fails naming its key
    bad.write_text(json.dumps({"graph": {"generate": {"pk": "powerlaw:2.5:2:10", "nodes": 50,
                                                      "assortativity": "0.1"}},
                               "techniques": ["bfs"], "f_grid": [0.5]}))
    assert _run_cli(["curves", "--config", str(bad)]) == 2
    assert "assortativity must be a number or null" in capsys.readouterr().err
    # a technique list on correction, compare or analytic, and a base rewiring on a
    # sweep, exit 2
    for mode in ("correction", "compare", "analytic"):
        bad.write_text(json.dumps({"graph": {"generate": {"pk": "regular:3", "nodes": 50}},
                                   "techniques": ["dfs"], "f_grid": [0.5], "mode": mode}))
        assert _run_cli([mode if mode == "compare" else "curves", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "techniques" in err and mode in err
    bad.write_text(json.dumps({"graph": {"generate": {"pk": "powerlaw:2.5:2:10", "nodes": 50,
                                                      "assortativity": 0.2}},
                               "techniques": ["bfs"], "f_grid": [0.5], "mode": "assortativity",
                               "assortativity_targets": [0.0]}))
    assert _run_cli(["curves", "--config", str(bad)]) == 2
    assert "graph.generate.assortativity" in capsys.readouterr().err
    # a flag its command would ignore fails and names itself
    trace_file = tmp_path / "t.csv"
    assert _run_cli(["sample", "--edgelist", str(tri), "--technique", "rw", "--budget", "5",
                     "--out", str(trace_file)]) == 0
    for flag, argv in (
            ("--f", ["correct", "--trace", str(trace_file), "--method", "rw", "--f", "0.7"]),
            ("--nodes", ["sample", "--edgelist", str(tri), "--nodes", "99",
                         "--technique", "bfs", "--budget", "2"]),
            ("--raw", ["sample", "--pk", "regular:3", "--nodes", "20", "--raw",
                       "--technique", "bfs", "--budget", "4"])):
        assert _run_cli(argv) == 2
        assert flag in capsys.readouterr().err
    # an assortativity no graph can have (r lies in [-1, 1]) fails when the source or
    # config is made, naming its key
    assert _run_cli(["generate", "--pk", "powerlaw:2.5:2:50", "--nodes", "500",
                     "--assortativity", "5"]) == 2
    assert "assortativity" in capsys.readouterr().err
    sweep = {"graph": {"generate": {"pk": "powerlaw:2.5:2:10", "nodes": 50}},
             "techniques": ["bfs"], "f_grid": [0.5], "mode": "assortativity",
             "assortativity_targets": [0.0]}
    for key, doc in (
            ("assortativity", {"graph": {"generate": {"pk": "regular:3", "nodes": 50,
                                                      "assortativity": -1.5}},
                               "techniques": ["bfs"], "f_grid": [0.5]}),
            ("assortativity_targets", dict(sweep, assortativity_targets=[0.1, 3.0]))):
        bad.write_text(json.dumps(doc))
        assert _run_cli(["curves", "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err
    # a config key its mode never reads fails naming the mode and every such key,
    # sorted; --rng-seed, a second handle on the config's seed, fails too
    for mode, extra, unread in (
            ("analytic", {"depth": 9, "workers": 2, "replicas": 3, "rewire_tolerance": 0.5,
                          "assortativity_targets": [0.2]},
             ["assortativity_targets", "depth", "graph.generate.assortativity", "replicas",
              "rewire_tolerance", "workers"]),
            ("bias", {"techniques": ["bfs"], "depth": 3}, ["depth"]),
            # the sweep rewires at the one tolerance and takes none from the config
            ("assortativity", {"techniques": ["bfs"], "assortativity_targets": [0.1],
                               "rewire_tolerance": 0.05}, ["rewire_tolerance"]),
            ("compare", {"f_grid": [0.5], "workers": 2}, ["f_grid", "workers"])):
        gen = {"pk": "regular:3", "nodes": 50}
        if mode == "analytic":
            gen["assortativity"] = 0.1
        bad.write_text(json.dumps({"graph": {"generate": gen}, "f_grid": [0.5], "mode": mode,
                                   **extra}))
        assert _run_cli([mode if mode == "compare" else "curves", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"mode {mode!r}" in err and ", ".join(map(repr, unread)) in err
    bad.write_text(json.dumps({"graph": {"generate": {"pk": "regular:3", "nodes": 50}},
                               "f_grid": [0.5], "mode": "analytic"}))
    with pytest.raises(SystemExit) as exit_:
        _run_cli(["curves", "--config", str(bad), "--rng-seed", "5"])
    assert exit_.value.code == 2
    assert "--rng-seed" in capsys.readouterr().err
    # a depth below 1 fails when the config is read, before the graph is loaded
    bad.write_text(json.dumps({"graph": {"file": str(tmp_path / "missing.txt")},
                               "mode": "compare", "depth": 0}))
    assert _run_cli(["compare", "--config", str(bad)]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    # a trace file that passes a walk off as a crawl, or holds an x no estimator can use,
    # fails and names what is wrong (the walk on a triangle repeats a node)
    walk, crawl_file = trace_file.read_text(), tmp_path / "crawl.csv"
    for text, named in (
            (walk.replace("with_replacement=true", "with_replacement=True"),
             "line 1: with_replacement 'True' is not true or false"),
            (walk.replace("with_replacement=true", "with_replacement=false"), "is at positions"),
            ("# f=0.5\nposition,node,degree,x_value\n0,0,2,nan\n1,1,2,1\n",
             "line 3: x_value 'nan' is not a finite number")):
        crawl_file.write_text(text)
        assert _run_cli(["correct", "--trace", str(crawl_file), "--method", "bfs"]) == 2
        assert named in capsys.readouterr().err
    # a mistyped '#' key fails naming itself, rather than running with its default, and
    # so does a key stated twice
    for text, named in (
            (walk.replace("technique=", "tecnique="), "trace line 1: 'tecnique'"),
            (walk.replace("revivals=0", "revival=1"), "trace line 1: 'revival'"),
            (walk.replace(" f=", " fraction="), "trace line 1: 'fraction'"),
            (walk.replace(" rng_seed=", " f=0.9 rng_seed="), "line 1: f is '0.9' here and")):
        crawl_file.write_text(text)
        assert _run_cli(["correct", "--trace", str(crawl_file)]) == 2
        assert named in capsys.readouterr().err
    # coverages that round to one budget would sample one prefix twice, in every mode
    # that samples a grid (the sweep at its unrewired target, here)
    shared = {"graph": {"generate": {"pk": "powerlaw:2.5:2:50", "nodes": 500}},
              "f_grid": [0.2, 0.2000000001, 0.201], "replicas": 2, "workers": 2}
    for mode, extra in (("bias", {"techniques": ["bfs"]}), ("correction", {}),
                        ("assortativity", {"techniques": ["bfs"],
                                           "assortativity_targets": [0.0]})):
        bad.write_text(json.dumps({**shared, **extra, "mode": mode}))
        assert _run_cli(["curves", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: f_grid values 0.2 and 0.2000000001 both sample 100 of 500 nodes\n")
    # a correction that does not converge exits 3 and says how far it got
    def no_convergence(trace, f_real):
        raise ConvergenceError("no bracket", 7, 0.25)

    monkeypatch.setattr(cli, "bfs_correct", no_convergence)
    assert _run_cli(["correct", "--trace", str(trace_file), "--method", "bfs", "--f", "0.5"]) == 3
    assert capsys.readouterr().err == (
        "error: correction did not converge after 7 iterations (residual 0.25)\n")


# Which config keys each mode reads, written out here rather than read from
# experiments.MODES; every mode also reads graph and mode.
MODE_READS = {
    "bias": ["techniques", "f_grid", "replicas", "seed", "workers",
             "graph.generate.assortativity"],
    "correction": ["f_grid", "replicas", "seed", "workers", "graph.generate.assortativity"],
    "assortativity": ["techniques", "f_grid", "replicas", "seed", "workers",
                      "assortativity_targets"],
    "compare": ["replicas", "seed", "depth", "graph.generate.assortativity"],
    "analytic": ["f_grid"],
}
KEY_VALUES = {"techniques": ["bfs"], "f_grid": [0.5], "replicas": 2, "seed": 3, "workers": 2,
              "assortativity_targets": [0.0], "depth": 2,
              "graph.generate.assortativity": 0.0}


def test_readme_lists_the_keys_each_mode_reads():
    # README's per-mode "Config keys" list documents MODES[mode].reads, so a key
    # removed from, or added to, a mode cannot stay wrong there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("each mode reads these besides:", 1)[1].split("\n\n")[1]
    documented = {}
    for item in block.removeprefix("- ").split("\n- "):
        mode, keys = item.split(":", 1)
        documented[mode.strip("`")] = sorted(re.findall(r"`([^`]+)`", keys))
    assert documented == {mode: sorted(set(m.reads) - {"graph", "mode"})
                          for mode, m in MODES.items()}


def _config_with(mode, keys):
    doc = {"graph": {"generate": {"pk": "regular:3", "nodes": 50}}, "mode": mode}
    for key in keys:
        if key == "graph.generate.assortativity":
            doc["graph"]["generate"]["assortativity"] = KEY_VALUES[key]
        else:
            doc[key] = KEY_VALUES[key]
    return doc


def test_each_mode_reads_its_own_keys_and_echoes_them(tmp_path, capsys):
    for mode, row in MODE_READS.items():
        # exactly the row is accepted, and the '#' line echoes it all but workers
        cfg = ExperimentConfig.from_json(_config_with(mode, row))
        echo = json.loads(cfg.metadata_line()[len("config "):])
        assert set(echo) == {"graph", "mode"} | {k for k in row if "." not in k} - {"workers"}
        assert ("assortativity" in echo["graph"]["generate"]) == (
            "graph.generate.assortativity" in row)
        # every key outside the row exits 2 naming the key and the mode
        command = "compare" if mode == "compare" else "curves"
        for key in sorted(set(KEY_VALUES) - set(row)):
            path = tmp_path / f"{mode}-{key}.json"
            path.write_text(json.dumps(_config_with(mode, [*row, key])))
            assert _run_cli([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"mode {mode!r} does not read key(s) {key!r};" in err


def test_cli_stats_and_correct_take_no_rng_seed(tmp_path, capsys):
    # neither command draws a random number, so the flag is refused, not ignored
    for command in (["stats", str(tmp_path / "g.txt")], ["correct", "--trace", "t.csv"]):
        with pytest.raises(SystemExit) as exit_:
            _run_cli([*command, "--rng-seed", "1"])
        assert exit_.value.code == 2
        assert "--rng-seed" in capsys.readouterr().err


def test_cli_sample_parameter_defaults(tmp_path):
    # ff spreads with p = 0.5 and sbs names 2 unless told otherwise
    for technique, flag, default in (("ff", "--ff-p", "0.5"), ("sbs", "--sbs-n", "2")):
        outs = []
        for extra in ([], [flag, default]):
            outs.append(tmp_path / f"{technique}{len(extra)}.csv")
            assert _run_cli(["sample", "--pk", "powerlaw:2.5:2:30", "--nodes", "400",
                             "--technique", technique, "--budget", "200", "--rng-seed", "6",
                             "--out", str(outs[-1]), *extra]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_trace_metadata_carries_coverage(tmp_path):
    edge_file = tmp_path / "g.txt"
    _run_cli(["generate", "--pk", "regular:4", "--nodes", "100",
              "--rng-seed", "8", "--out", str(edge_file)])
    trace_file = tmp_path / "t.csv"
    # --raw keeps the multigraph exactly 4-regular (cleanup would shave
    # degrees wherever the generator placed loops or parallel edges)
    _run_cli(["sample", "--edgelist", str(edge_file), "--technique", "bfs", "--raw",
              "--budget", "50", "--rng-seed", "4", "--out", str(trace_file)])
    # correction works off the recorded coverage without an explicit --f
    out = tmp_path / "c.csv"
    assert _run_cli(["correct", "--trace", str(trace_file), "--out", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert float(row["corrected_mean"]) == pytest.approx(4.0, rel=1e-6)
    assert not math.isnan(float(row["t_value"]))


def test_every_technique_takes_its_parameter_reference_and_method_from_the_table(tmp_path,
                                                                                  capsys):
    # what each law means: a bias row's reference, and correct's default method
    references = {"walk": "rw_mean", "uniform walk": "true_mean"}
    methods = {"traversal": "bfs", "draw": "bfs", "walk": "rw", "uniform walk": "mhrw"}
    edge_file = tmp_path / "g.txt"
    assert _run_cli(["generate", "--pk", "powerlaw:2.5:2:30", "--nodes", "300",
                     "--rng-seed", "2", "--out", str(edge_file)]) == 0
    cfg = _bias_cfg(source=GraphSource("file", path=str(edge_file)), f_grid=[0.2], replicas=1,
                    techniques=[TechniqueSpec(name, tech.param and tech.param.default)
                                for name, tech in TECHNIQUES.items()])
    rows = {row["technique"].split(":")[0]: row for row in run_bias_curves(cfg)}
    curve = mean_q_of_f(degree_distribution(load_edge_list(str(edge_file))), 0.2)
    for name, tech in TECHNIQUES.items():
        row = rows[name]
        assert row["analytic_mean"] == (row[references[tech.law]] if tech.law in references
                                        else curve)
        trace = tmp_path / f"{name}.csv"
        sample = ["sample", "--edgelist", str(edge_file), "--technique", name,
                  "--budget", "40", "--rng-seed", "1"]
        assert _run_cli([*sample, "--out", str(trace)]) == 0
        assert f"technique={name}" in trace.read_text().split("\n", 1)[0].split()
        if tech.param is not None:   # sample's default is the table's
            given = tmp_path / f"{name}_given.csv"
            assert _run_cli([*sample, f"--{name}-{tech.param.short}", str(tech.param.default),
                             "--out", str(given)]) == 0
            assert given.read_bytes() == trace.read_bytes()
        outs = []
        for extra in ([], ["--method", methods[tech.law]]):
            outs.append(tmp_path / f"{name}_corrected{len(extra)}.csv")
            assert _run_cli(["correct", "--trace", str(trace), "--out", str(outs[-1]),
                             *extra]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
    # a trace whose technique is not in the table, or that names none, takes no default
    # method: it exits 2, naming the value (or its absence) and --method, and is corrected
    # as given with --method. A mistyped walk is refused as such, not as a walk passed
    # to the bfs method
    unknown, out = tmp_path / "unknown.csv", tmp_path / "unknown_corrected.csv"
    capsys.readouterr()
    for name, old, new, value in (("bfs", "technique=bfs", "technique=x", "'x'"),
                                  ("bfs", "technique=bfs ", "", "names no technique"),
                                  ("bfs", "technique=bfs", "technique=unknown", "'unknown'"),
                                  ("rw", "technique=rw", "technique=wr", "'wr'")):
        unknown.write_text((tmp_path / f"{name}.csv").read_text().replace(old, new))
        assert _run_cli(["correct", "--trace", str(unknown), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert value in err and "--method" in err and "without-replacement" not in err
        assert _run_cli(["correct", "--trace", str(unknown), "--out", str(out),
                         "--method", name]) == 0
        assert out.read_bytes() == (tmp_path / f"{name}_corrected0.csv").read_bytes()
    # --f stays bfs's only
    assert _run_cli(["correct", "--trace", str(tmp_path / "rw.csv"), "--f", "0.2"]) == 2
