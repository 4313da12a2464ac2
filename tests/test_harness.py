import csv
import dataclasses
import math
import multiprocessing
import random

import numpy as np
import pytest

from rainbowtrees import (CSV_HEADER, ParameterError, SuccessEstimate,
                          TrialConfig, TrialRecord, estimate, format_records,
                          harness, lemma_stats, read_records, run_trials,
                          spawn_trial_source, wilson_interval, write_records)

GOOD_ALMOST = dict(kind="almost-spanning", n=500, eps=0.25, d=3,
                   tree_frac=0.08,
                   knobs={"beta": 0.12, "m_mode": "balanced",
                          "expander_c_mode": "density"})


def strip_ms(record):
    return (record.config_hash, record.trial, record.seed, record.outcome,
            record.stage, record.metrics)


# -- configuration ----------------------------------------------------------


def test_config_validation_rejects_bad_values():
    good = dict(kind="rainbow-st", n=20)
    for overrides in (
            {"kind": "nonsense"},
            {"n": 0},
            {"n": 5.5},
            {"trials": -1},
            {"base_seed": -3},
            {"p": 1.5},
            {"palette_size": 0},
            {"eps": 0.0},
            {"delta": 1.0},
            {"alpha": -0.1},
            {"d": 0},
            {"tree_source": "bush"},
            {"seed_kind": "dense"},
            {"tree_frac": 0.0},
            {"gamma": 1.0},
            {"beta": 0.0},
            {"samples": 0},
            {"lemma_kind": "many-colours-a"},
            {"knobs": {"no_such_knob": 1}},
            # a number rule wants a real number that is not a bool, and
            # an integer where the field counts something
            {"p": "x"},
            {"p": True},
            {"palette_size": "x"},
            {"palette_size": 39.5},
            {"eps": "x"},
            {"delta": "x"},
            {"alpha": "x"},
            {"gamma": "x"},
            {"beta": "x"},
            {"tree_frac": "x"},
            {"n": True}):
        cfg = TrialConfig(**{**good, **overrides})
        (name,) = overrides
        with pytest.raises(ParameterError, match=name):
            cfg.validate()


def test_config_validation_wants_integers_not_integral_floats():
    # an integral float such as n=30.0 used to pass validation and then
    # stop run_trials with a TypeError; numpy integers stay accepted
    good = dict(kind="rainbow-st", n=30, trials=2, base_seed=4, d=3,
                samples=40)
    for name in ("n", "trials", "base_seed", "d", "samples"):
        cfg = TrialConfig(**{**good, name: float(good[name])})
        with pytest.raises(ParameterError, match=name):
            cfg.validate()
    as_numpy = TrialConfig(**{k: np.int64(v) if isinstance(v, int) else v
                              for k, v in good.items()})
    as_numpy.validate()
    outcomes = lambda cfg: [(rec.trial, rec.seed, rec.outcome, rec.stage,
                             rec.metrics) for rec in run_trials(cfg)]
    assert outcomes(as_numpy) == outcomes(TrialConfig(**good))


def test_config_validation_kind_specific_rules():
    with pytest.raises(ParameterError):
        TrialConfig(kind="spanning", n=30, palette_size=40).validate()
    with pytest.raises(ParameterError):
        TrialConfig(kind="spanning", n=30, tree_frac=0.5).validate()
    with pytest.raises(ParameterError):
        TrialConfig(kind="almost-spanning", n=30, d=1).validate()
    # a 10-node star has centre degree 9 > d
    with pytest.raises(ParameterError):
        TrialConfig(kind="almost-spanning", n=40, tree_source="star",
                    tree_frac=0.25, d=3).validate()
    # tree larger than the leftover budget allows
    with pytest.raises(ParameterError):
        TrialConfig(kind="almost-spanning", n=40, eps=0.5,
                    tree_frac=0.9).validate()
    # lemma runs demand a lemma kind, and colour lemmas a usable alpha
    with pytest.raises(ParameterError):
        TrialConfig(kind="lemma-stats", n=40).validate()
    with pytest.raises(ParameterError):
        TrialConfig(kind="lemma-stats", n=40, lemma_kind="many-colours-a",
                    alpha=0.0).validate()
    with pytest.raises(ParameterError):
        TrialConfig(kind="lemma-stats", n=40, lemma_kind="large-Buv",
                    d=1).validate()
    # eps_override knob is range-checked up front
    with pytest.raises(ParameterError):
        TrialConfig(kind="spanning", n=30, d=2,
                    knobs={"eps_override": 2.0}).validate()
    # a kind without a palette rule takes no palette_size, and one
    # without a tree rule no tree_frac
    with pytest.raises(ParameterError, match="palette_size"):
        TrialConfig(kind="lemma-stats", n=40, lemma_kind="many-colours-a",
                    alpha=0.1, palette_size=40).validate()
    with pytest.raises(ParameterError, match="tree_frac"):
        TrialConfig(kind="rainbow-st", n=40, tree_frac=0.5).validate()


def test_each_row_reads_exactly_its_fields():
    # a drift guard: the row's check and run function, run once on a
    # config that records its attribute reads, read the fields the row
    # names in `reads` and no other field beyond those every kind reads
    fields = {f.name for f in dataclasses.fields(TrialConfig)}
    always = fields - {name for name, _ in harness._UNREAD_DEFAULTS}
    lemma = dict(kind="lemma-stats", n=300)
    configs = {
        "almost-spanning": TrialConfig(**GOOD_ALMOST),
        "spanning": TrialConfig(kind="spanning", n=60, eps=0.15, delta=0.4,
                                alpha=0.25, d=3),
        "rainbow-st": TrialConfig(kind="rainbow-st", n=24),
        "many-colours-a": TrialConfig(**lemma, lemma_kind="many-colours-a",
                                      alpha=0.1),
        "many-colours-b": TrialConfig(**lemma, lemma_kind="many-colours-b",
                                      alpha=0.5),
        "large-Buv": TrialConfig(kind="lemma-stats", lemma_kind="large-Buv",
                                 n=80, d=2, delta=0.5, seed_kind="complete",
                                 samples=5, base_seed=31),
        "expand-membership": TrialConfig(
            kind="lemma-stats", lemma_kind="expand-membership", n=400,
            knobs={"C": 40.0, "theta": 0.3, "check_trials": 40}),
    }
    assert set(configs) == set(harness.KINDS)
    seen = set()

    class Recording(TrialConfig):
        def __getattribute__(self, name):
            seen.add(name)
            return super().__getattribute__(name)

    for key, config in configs.items():
        config.validate()
        entry = harness.KINDS[key]
        seen.clear()
        recording = Recording(**{name: getattr(config, name)
                                 for name in fields})
        entry.check(recording)
        outcome, stage, _ = entry.run(recording,
                                      spawn_trial_source(config.base_seed, 0))
        assert stage in ("done", "bound", "search") or key == "spanning", \
            (key, outcome, stage)
        assert (seen & fields) - always == entry.reads, key


def test_config_knobs_per_kind():
    derive = {"zeta": 0.1, "beta": 0.12, "rho": 0.05,
              "expander_c_mode": "density", "m_mode": "balanced", "c_m": 3.0}
    almost = dict(kind="almost-spanning", n=500, eps=0.25, d=3,
                  tree_frac=0.08)
    spanning = dict(kind="spanning", n=300, eps=0.05, d=3)
    buv = dict(kind="lemma-stats", lemma_kind="large-Buv", n=300, d=2)
    expand = dict(kind="lemma-stats", lemma_kind="expand-membership", n=400)
    TrialConfig(**almost, knobs=derive).validate()
    TrialConfig(**spanning, knobs={**derive, "eps_override": 0.5}).validate()
    TrialConfig(**spanning, knobs={"eps_override": None}).validate()
    # at the analysis trim fraction nothing is trimmed at n = 300, so the
    # embedding stage's zeta cap is below 1e-13 and zeta 0.1 fails here,
    # before trial 0
    with pytest.raises(ParameterError, match="zeta"):
        TrialConfig(**spanning,
                    knobs={**derive, "eps_override": None}).validate()
    TrialConfig(**expand, knobs={"theta": 0.3, "C": 40.0, "eta": 0.2, "r": 3,
                                 "check_trials": 40}).validate()
    # validate derives the expander family parameters: r >= 3 is theirs
    with pytest.raises(ParameterError, match="r must be"):
        TrialConfig(**expand, knobs={"r": 2}).validate()
    # fixed constants of the pipelines, no longer knobs
    retired = {"c_beta": 0.01, "c_rho": 0.01, "block_scale": 1.0,
               "check_mode": "sampled", "check_trials": 60,
               "embed_budget": None}
    for base, keys in ((almost, retired),
                       (spanning, {**retired, "c_ln": 3.0,
                                   "partition_retries": 50}),
                       (buv, {"partition_retries": 50}),
                       (expand, {"check_mode": "sampled"})):
        for key, value in keys.items():
            with pytest.raises(ParameterError, match="unknown knob"):
                TrialConfig(**base, knobs={key: value}).validate()


def test_config_defaults_resolve():
    almost = TrialConfig(kind="almost-spanning", n=200)
    assert almost.resolved_p() == pytest.approx(10.0 * math.log(200) / 200)
    assert almost.resolved_palette() == 200
    assert almost.resolved_tree_size() == 150

    rst = TrialConfig(kind="rainbow-st", n=200)
    assert rst.resolved_p() == pytest.approx(math.log(200) / 200)
    assert rst.resolved_palette() == 199

    lem = TrialConfig(kind="lemma-stats", lemma_kind="many-colours-a",
                      n=400, alpha=0.1)
    assert lem.resolved_p() == pytest.approx(20.0 / 400)

    sized = TrialConfig(kind="almost-spanning", n=500, tree_frac=0.08)
    assert sized.resolved_tree_size() == 40
    span = TrialConfig(kind="spanning", n=77, d=2)
    assert span.resolved_tree_size() == 77

    # expand-membership runs at 4C/n, C from its knobs
    expand = dict(kind="lemma-stats", lemma_kind="expand-membership")
    assert TrialConfig(**expand, n=400, knobs={"C": 40.0, "theta": 0.3}) \
        .resolved_p() == pytest.approx(4.0 * 40.0 / 400)
    assert TrialConfig(**expand, n=2000).resolved_p() \
        == pytest.approx(4.0 * 200.0 / 2000)
    assert TrialConfig(**expand, n=400).resolved_p() == 1.0


def test_config_digest_tracks_content():
    a = TrialConfig(kind="rainbow-st", n=50, base_seed=1)
    b = TrialConfig(kind="rainbow-st", n=50, base_seed=1)
    c = TrialConfig(kind="rainbow-st", n=51, base_seed=1)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 16


def test_config_digest_is_pinned():
    # the digest is every record's config_hash: a cheaper way to compute
    # it must hash the same fields to the same value
    bare = TrialConfig(kind="rainbow-st", n=300, p=300 ** -1.5,
                       palette_size=299, delta=0.4, trials=3, base_seed=17)
    knobbed = TrialConfig(kind="almost-spanning", n=2000, eps=0.25, d=3,
                          tree_frac=0.08, trials=1,
                          knobs={"beta": 0.12, "m_mode": "balanced",
                                 "expander_c_mode": "density"})
    assert bare.digest() == "226b5202bafd0495"
    assert knobbed.digest() == "4aec96398fbab6e8"
    small = dataclasses.replace(bare, n=12, p=0.9, palette_size=11, trials=1)
    assert run_trials(small)[0].config_hash == small.digest()


# -- run_trials ---------------------------------------------------------------


def test_run_trials_zero_trials_returns_empty():
    assert run_trials(TrialConfig(kind="rainbow-st", n=10, trials=0)) == []


def test_run_trials_rejects_bad_config_before_running():
    with pytest.raises(ParameterError):
        run_trials(TrialConfig(kind="rainbow-st", n=0, trials=5))
    with pytest.raises(ParameterError):
        run_trials("not a config")


@pytest.mark.parametrize("fields", [
    dict(kind="rainbow-st", n=10, delta=0.95),
    dict(kind="rainbow-st", n=1),
    dict(kind="rainbow-st", n=30, delta=0.97, seed_kind="random-supergraph"),
    dict(kind="spanning", n=40, delta=0.99, eps=0.1),
    dict(kind="lemma-stats", lemma_kind="large-Buv", n=10, delta=0.95,
         seed_kind="multipartite")],
    ids=["rst-clique-union", "rst-n1", "rst-random-supergraph", "spanning",
         "large-Buv"])
def test_a_seed_that_cannot_be_built_fails_before_trial_0(fields,
                                                          monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("validation built a seed")
    monkeypatch.setattr(harness, "gen_seed_graph", build)
    with pytest.raises(ParameterError, match="seed graphs need|no graph on"):
        run_trials(TrialConfig(trials=2, **fields))


def test_rainbow_st_trials_succeed_small_dense():
    cfg = TrialConfig(kind="rainbow-st", n=24, trials=6, base_seed=11)
    records = run_trials(cfg)
    assert len(records) == 6
    for i, rec in enumerate(records):
        assert rec.trial == i
        assert rec.seed == 11
        assert rec.config_hash == cfg.digest()
        assert rec.outcome == "success" and rec.stage == "done"
        assert rec.metrics["tree_edges"] == 23
        assert rec.metrics["palette"] == 23
        assert rec.ms >= 0.0


def test_run_trials_rerun_is_identical_sans_ms():
    cfg = TrialConfig(kind="rainbow-st", n=22, trials=5, base_seed=7)
    first = run_trials(cfg)
    second = run_trials(cfg)
    assert [strip_ms(r) for r in first] == [strip_ms(r) for r in second]


def test_run_trials_rejects_bad_worker_counts():
    cfg = TrialConfig(kind="rainbow-st", n=20, trials=2)
    for workers in (0, -4, 2.5, True, None, "2"):
        with pytest.raises(ParameterError, match="workers"):
            run_trials(cfg, workers=workers)


def test_worker_pool_is_capped_at_the_core_count(monkeypatch):
    fork = type(multiprocessing.get_context("fork"))
    make_pool, sizes = fork.Pool, []

    def counted(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return make_pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", counted)
    cfg = TrialConfig(kind="rainbow-st", n=20, trials=6, base_seed=3)
    serial = [strip_ms(r) for r in run_trials(cfg)]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert [strip_ms(r) for r in run_trials(cfg, workers=8)] == serial
    assert sizes == [2]
    for cores in (1, None):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        assert [strip_ms(r) for r in run_trials(cfg, workers=8)] == serial
    assert sizes == [2]


def test_run_trials_worker_pool_matches_serial():
    cfg = TrialConfig(kind="rainbow-st", n=20, trials=6, base_seed=3)
    serial = run_trials(cfg, workers=1)
    pooled = run_trials(cfg, workers=3)
    assert [strip_ms(r) for r in serial] == [strip_ms(r) for r in pooled]


def test_almost_spanning_trials_succeed_and_audit():
    cfg = TrialConfig(trials=4, base_seed=2, **GOOD_ALMOST)
    records = run_trials(cfg)
    assert [r.outcome for r in records] == ["success"] * 4
    for rec in records:
        assert rec.stage == "done"
        assert rec.metrics["tree_nodes"] == 40
        assert rec.metrics["edges"] == 39
        assert rec.metrics["colours"] == 39
        assert isinstance(rec.metrics["hypothesis_met"], bool)


def test_spanning_trials_record_stage_failures_honestly():
    # far below the asymptotic regime: every trial must fail at a named
    # stage and still produce a well-formed record
    cfg = TrialConfig(kind="spanning", n=60, eps=0.15, delta=0.4, alpha=0.25,
                      d=3, trials=3, base_seed=100)
    records = run_trials(cfg)
    stages = {"sparsify", "expander", "root-edges", "embed",
              "available-colours", "partition", "absorption", "build-I0"}
    for rec in records:
        assert rec.outcome == "fail"
        assert rec.stage in stages
        assert rec.metrics["r"] == 9
        assert rec.metrics["eps_used"] == pytest.approx(0.15)
        assert "detail" in rec.metrics
    again = run_trials(cfg)
    assert [strip_ms(r) for r in records] == [strip_ms(r) for r in again]


@pytest.mark.parametrize("key,value", [
    ("theta", "x"), ("theta", True), ("C", "x"), ("C", True), ("eta", "x"),
    ("eta", False), ("r", "3"), ("r", 3.0), ("check_trials", "x"),
    ("check_trials", 0), ("check_trials", 2.5)])
def test_expand_knobs_of_the_wrong_type_fail_before_trial_0(key, value):
    knobs = {"C": 40.0, "theta": 0.3, "check_trials": 40, key: value}
    cfg = TrialConfig(kind="lemma-stats", lemma_kind="expand-membership",
                      n=400, trials=2, knobs=knobs)
    with pytest.raises(ParameterError, match=key):
        run_trials(cfg)


def test_spanning_knobs_are_checked_before_trial_0():
    # the spanning pipeline's parameter derivation runs in validate, so a
    # bad knob raises instead of failing every trial at stage "error"
    cfg = TrialConfig(kind="spanning", n=60, eps=0.1, trials=3,
                      knobs={"m_mode": "bogus"})
    with pytest.raises(ParameterError, match="m_mode"):
        run_trials(cfg)


def test_infeasible_blocks_fail_the_trial_not_the_batch():
    # the block budget depends on how many pieces the random tree splits
    # into, so a tree too big for the host fails its own trial
    cfg = TrialConfig(kind="almost-spanning", n=600, eps=0.25, d=3,
                      tree_frac=0.2, knobs=GOOD_ALMOST["knobs"], trials=3)
    records = run_trials(cfg)
    assert len(records) == 3
    for rec in records:
        assert (rec.outcome, rec.stage) == ("fail", "infeasible")
        assert rec.metrics["minimum_n"] > 600
        assert "only 600 exist" in rec.metrics["detail"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_trial_fails_alone(monkeypatch, workers):
    # the finder raises on trial 2's host only; the other trials, run
    # serially or in forked workers, record what an unpatched run records
    cfg = TrialConfig(kind="rainbow-st", n=24, trials=4, base_seed=11)
    clean = run_trials(cfg)
    sizes = [rec.metrics["host_edges"] for rec in clean]
    assert sizes.count(sizes[2]) == 1
    finder = harness.find_rainbow_spanning_tree

    def flaky(host):
        if host.size == sizes[2]:
            raise RuntimeError("bad draw")
        return finder(host)

    monkeypatch.setattr(harness, "find_rainbow_spanning_tree", flaky)
    records = run_trials(cfg, workers=workers)
    assert len(records) == 4
    assert (records[2].trial, records[2].outcome, records[2].stage,
            records[2].metrics) == (2, "fail", "error",
                                    {"error": "RuntimeError",
                                     "detail": "bad draw"})
    assert [strip_ms(r) for i, r in enumerate(records) if i != 2] \
        == [strip_ms(r) for i, r in enumerate(clean) if i != 2]


# -- estimates ----------------------------------------------------------------


def test_wilson_pinned_examples():
    point, lo, hi = wilson_interval(100, 100)
    assert point == 1.0 and hi == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(0.96300650, abs=1e-6)

    point, lo, hi = wilson_interval(0, 100)
    assert point == 0.0 and lo == 0.0
    assert hi == pytest.approx(0.03699350, abs=1e-6)

    point, lo, hi = wilson_interval(50, 100)
    assert point == 0.5
    assert lo == pytest.approx(0.40383153, abs=1e-6)
    assert hi == pytest.approx(0.59616847, abs=1e-6)


def test_wilson_containment_and_symmetry():
    rng = random.Random(91)
    for _ in range(300):
        trials = rng.randint(1, 500)
        successes = rng.randint(0, trials)
        point, lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= point <= hi <= 1.0
        mp, mlo, mhi = wilson_interval(trials - successes, trials)
        assert mlo == pytest.approx(1.0 - hi, abs=1e-12)
        assert mhi == pytest.approx(1.0 - lo, abs=1e-12)


def test_estimate_over_records():
    cfg = TrialConfig(kind="rainbow-st", n=24, trials=6, base_seed=11)
    est = estimate(run_trials(cfg))
    assert est.successes == 6 and est.trials == 6
    assert est.point == 1.0 and est.upper == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        estimate([])
    with pytest.raises(ParameterError):
        wilson_interval(5, 4)
    with pytest.raises(AssertionError):
        SuccessEstimate(successes=2, trials=4, point=0.9, lower=0.1,
                        upper=0.5)


# -- lemma statistics ---------------------------------------------------------


def test_lemma_stats_colour_counts_small():
    a = lemma_stats("many-colours-a", {"n": 300}, trials=6, base_seed=3)
    assert a.kind == "many-colours-a"
    assert a.trials == 6 and len(a.records) == 6
    assert a.bound == pytest.approx(15.0)
    assert a.violations == 0 and a.frequency == 0.0
    for rec in a.records:
        assert rec.metrics["a_size"] == 30
        assert rec.metrics["got"] >= rec.metrics["bound"]

    b = lemma_stats("many-colours-b", {"n": 300}, trials=6, base_seed=3)
    assert b.bound == pytest.approx(3.0)
    assert 0.0 <= b.frequency <= 1.0
    assert b.violations + sum(1 for r in b.records
                              if r.outcome == "success") == 6 - b.aborted


def test_lemma_stats_large_buv_reports_small_order_violations():
    # at this order the pools are tiny, so honest violations are expected;
    # the summary must report them without judgement
    s = lemma_stats("large-Buv", {"n": 200, "samples": 10}, trials=2,
                    base_seed=3)
    assert s.trials == 2
    assert s.bound == pytest.approx(0.00125)
    assert 0 <= s.violations <= 2
    assert s.frequency == s.violations / 2
    for rec in s.records:
        if rec.metrics.get("violated") is not None:
            assert rec.metrics["min"] >= 0
            assert rec.metrics["samples"] == 10
            assert rec.metrics["anchors"] >= 1


def test_lemma_stats_expander_membership_smoke():
    s = lemma_stats("expand-membership",
                    {"n": 400, "knobs": {"C": 40.0, "theta": 0.3,
                                         "check_trials": 40}},
                    trials=3, base_seed=5)
    assert s.trials == 3
    assert s.bound is None
    assert s.violations + s.aborted <= 3
    for rec in s.records:
        assert rec.outcome in ("success", "fail")


def test_lemma_stats_rejects_bad_requests():
    with pytest.raises(ParameterError):
        lemma_stats("no-such-lemma", {}, trials=2)
    with pytest.raises(ParameterError):
        lemma_stats("many-colours-a", {}, trials=0)
    with pytest.raises(ParameterError):
        lemma_stats("many-colours-a", {"volume": 11}, trials=2)
    # trials follows the harness's integer rule
    for trials in ("x", 2.0, True):
        with pytest.raises(ParameterError, match="trials"):
            lemma_stats("many-colours-a", {}, trials=trials)
    # a key lemma_stats sets itself is named, not a TypeError
    for key in ("trials", "base_seed", "kind", "lemma_kind"):
        with pytest.raises(ParameterError, match=key):
            lemma_stats("many-colours-a", {key: 3}, trials=1)


# -- CSV ----------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    cfg = TrialConfig(kind="rainbow-st", n=22, trials=5, base_seed=7)
    records = run_trials(cfg)
    path = str(tmp_path / "records.csv")
    write_records(path, records)
    back = read_records(path)
    assert len(back) == 5
    for rec, row in zip(records, back):
        assert row["trial"] == rec.trial
        assert row["seed"] == rec.seed
        assert row["outcome"] == rec.outcome
        assert row["stage"] == rec.stage
        assert row["metrics"] == rec.metrics
        assert row["ms"] == pytest.approx(rec.ms, abs=1e-3)


def test_csv_quoting_survives_commas_and_quotes(tmp_path):
    tricky = TrialRecord(config_hash="abc", trial=0, seed=1, outcome="fail",
                         stage="embed",
                         metrics={"detail": 'piece "left", then stalled',
                                  "count": 2},
                         ms=1.25)
    text = format_records([tricky])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert text[len(lines[0]):len(lines[0]) + 2] == "\r\n"
    path = str(tmp_path / "tricky.csv")
    write_records(path, [tricky])
    row = read_records(path)[0]
    assert row["metrics"] == tricky.metrics


def test_csv_stable_across_reruns_except_ms(tmp_path):
    cfg = TrialConfig(kind="rainbow-st", n=20, trials=4, base_seed=13)
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    write_records(p1, run_trials(cfg))
    write_records(p2, run_trials(cfg))

    def rows_without_ms(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert rows_without_ms(p1) == rows_without_ms(p2)


def test_read_records_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParameterError):
        read_records(str(empty))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(ParameterError):
        read_records(str(wrong))
    short = tmp_path / "short.csv"
    short.write_text(",".join(CSV_HEADER) + "\r\n1,2,success\r\n")
    with pytest.raises(ParameterError):
        read_records(str(short))
