import csv
import math
import random

import numpy as np
import pytest

from rainbowtrees import (CSV_HEADER, ParameterError, SuccessEstimate,
                          TrialConfig, TrialRecord, estimate, format_records,
                          harness, lemma_stats, read_records, run_trials,
                          wilson_interval, write_records)

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
            {"knobs": {"no_such_knob": 1}}):
        cfg = TrialConfig(**{**good, **overrides})
        with pytest.raises(ParameterError):
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


def test_config_knobs_per_kind():
    derive = {"zeta": 0.1, "beta": 0.12, "rho": 0.05,
              "expander_c_mode": "density", "m_mode": "balanced", "c_m": 3.0}
    almost = dict(kind="almost-spanning", n=500, eps=0.25, d=3,
                  tree_frac=0.08)
    spanning = dict(kind="spanning", n=300, eps=0.05, d=3)
    buv = dict(kind="lemma-stats", lemma_kind="large-Buv", n=300, d=2)
    expand = dict(kind="lemma-stats", lemma_kind="expand-membership", n=400)
    TrialConfig(**almost, knobs=derive).validate()
    TrialConfig(**spanning, knobs={**derive, "eps_override": None}).validate()
    TrialConfig(**expand, knobs={"theta": 0.3, "C": 40.0, "eta": 0.5, "r": 2,
                                 "check_trials": 40}).validate()
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


def test_config_digest_tracks_content():
    a = TrialConfig(kind="rainbow-st", n=50, base_seed=1)
    b = TrialConfig(kind="rainbow-st", n=50, base_seed=1)
    c = TrialConfig(kind="rainbow-st", n=51, base_seed=1)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 16


# -- run_trials ---------------------------------------------------------------


def test_run_trials_zero_trials_returns_empty():
    assert run_trials(TrialConfig(kind="rainbow-st", n=10, trials=0)) == []


def test_run_trials_rejects_bad_config_before_running():
    with pytest.raises(ParameterError):
        run_trials(TrialConfig(kind="rainbow-st", n=0, trials=5))
    with pytest.raises(ParameterError):
        run_trials("not a config")


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
