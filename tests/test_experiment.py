import hashlib
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import rdsgls as r
from rdsgls import estimators, experiment, fileio
from rdsgls import netmodel
from rdsgls.presets import OFFSPRING_SURVEY, table1_dcsbm


def small_config(**overrides):
    params = table1_dcsbm(400, expected_degree=12.0, rng_seed=3)
    base = dict(
        outcomes={
            "aligned": r.OutcomeSpec(kind="block_values", values=(1.0, 1.0, 0.0)),
            "uncorrelated": r.OutcomeSpec(kind="bernoulli", values=(0.66,)),
        },
        walk=r.WalkConfig(
            offspring_pmf=tuple(OFFSPRING_SURVEY), target_n=80, seed_rule="uniform"
        ),
        estimators=("mean", "vh", "sbm_y"),
        sizes=(40, 80),
        replicates=12,
        base_seed=123,
        dcsbm=params,
    )
    base.update(overrides)
    return r.ExperimentConfig(**base)


def test_figure1_rows_and_bounds():
    rows = r.figure1_ratio([0.6, 0.75, 0.9], range(5, 13))
    assert len(rows) == 3 * 8
    for row in rows:
        assert 0 < row["ratio"] < 1.0
        assert row["n"] == 2 ** row["levels"] - 1


def test_figure1_regimes():
    rows = r.figure1_ratio([0.9], range(5, 16))
    ratios = [row["ratio"] for row in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.05
    low = r.figure1_ratio([0.6, 0.75], range(5, 16))
    assert min(row["ratio"] for row in low) > 0.1
    # past the growth threshold the mean's scaled variance keeps rising
    super_rows = r.figure1_ratio([0.9], range(5, 16))
    nvm = [row["n"] * row["var_mean"] for row in super_rows]
    assert all(a < b for a, b in zip(nvm, nvm[1:]))
    sub_rows = r.figure1_ratio([0.75], range(5, 16))
    nvm_sub = [row["n"] * row["var_mean"] for row in sub_rows]
    assert nvm_sub[-1] / nvm_sub[0] < 2.0


def test_figure1_rejects_out_of_range_p():
    with pytest.raises(r.InvalidParametersError):
        r.figure1_ratio([0.5], [5])


def test_rmse_zero_variance_outcome():
    cfg = small_config(
        outcomes={"flat": r.OutcomeSpec(kind="block_values", values=(0.4, 0.4, 0.4))},
        estimators=("mean", "vh"),
        replicates=5,
    )
    table = r.run_rmse_experiment(cfg)
    for row in table.rows:
        assert row.rmse < 1e-12


def test_rmse_table_identity():
    table = r.run_rmse_experiment(small_config())
    for row in table.rows:
        reps = row.replicates
        lhs = row.rmse**2
        rhs = row.bias**2 + row.sd**2 * (reps - 1) / reps
        assert abs(lhs - rhs) < 1e-10
        assert row.failures == 0


def test_rmse_determinism_bytes(tmp_path):
    cfg = small_config(replicates=6)
    t1 = r.run_rmse_experiment(cfg)
    t2 = r.run_rmse_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_rmse_table(t1, p1)
    fileio.write_rmse_table(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rmse_parallel_matches_serial():
    cfg = small_config(replicates=8)
    serial = r.run_rmse_experiment(cfg)
    parallel = r.run_rmse_experiment(small_config(replicates=8, jobs=2))
    for a, b in zip(serial.rows, parallel.rows):
        assert a == b


def test_parallel_matches_serial_after_threaded_draw():
    # small draw chunks send the population draw through worker threads,
    # which must be gone before the replicate pool forks
    before = threading.active_count()
    with mock.patch.object(netmodel, "_DRAW_CHUNK", 997), \
            mock.patch.object(netmodel, "_draw_workers", lambda: 2):
        serial = r.run_rmse_experiment(small_config(replicates=6))
        parallel = r.run_rmse_experiment(small_config(replicates=6, jobs=2))
    assert threading.active_count() == before
    assert serial.rows == parallel.rows
    assert serial.rows == r.run_rmse_experiment(small_config(replicates=6)).rows


def test_single_block_network_estimators_close():
    # no block structure: every estimator should sit in the same band
    n_pop = 1500
    z = np.zeros(n_pop, dtype=np.int64)
    theta = np.full(n_pop, 1.0 / n_pop)
    params = r.DcSbmParams(z=z, theta=theta, B=np.array([[n_pop * 16.0]]))
    cfg = small_config(
        dcsbm=params,
        outcomes={"u": r.OutcomeSpec(kind="bernoulli", values=(0.5,))},
        estimators=("mean", "vh", "auto", "delta", "sbm_y", "sbm_z"),
        walk=r.WalkConfig(
            offspring_pmf=tuple(OFFSPRING_SURVEY), target_n=500, seed_rule="uniform"
        ),
        sizes=(500,),
        replicates=200,
        base_seed=31,
    )
    table = r.run_rmse_experiment(cfg)
    rmses = {row.estimator: row.rmse for row in table.rows}
    lo, hi = min(rmses.values()), max(rmses.values())
    assert hi <= 1.2 * lo, rmses


def test_prefix_truncation_consistency():
    # exchangeable case: a truncated long sample and a fresh short sample
    # must have the same estimator distribution
    n_pop = 300
    graph = r.WeightedGraph.from_dense(np.ones((n_pop, n_pop)) - np.eye(n_pop))
    rng = np.random.default_rng(0)
    y = rng.random(n_pop)
    cfg_long = r.WalkConfig(offspring_pmf=tuple(OFFSPRING_SURVEY), target_n=120)
    cfg_short = r.WalkConfig(offspring_pmf=tuple(OFFSPRING_SURVEY), target_n=40)
    truncated, fresh = [], []
    for seed in range(500):
        long_sample, _ = r.rds_without_replacement(graph, cfg_long, seed)
        truncated.append(long_sample.prefix(40).with_outcome(y).y.mean())
        short_sample, _ = r.rds_without_replacement(graph, cfg_short, 10_000 + seed)
        fresh.append(short_sample.with_outcome(y).y.mean())
    ks = stats.ks_2samp(truncated, fresh)
    assert ks.pvalue > 0.001


def test_preferential_flag_changes_sampling_not_degrees():
    cfg = small_config(replicates=4, preferential_weight=10.0)
    table = r.run_rmse_experiment(cfg)
    assert len(table.rows) == len(cfg.estimators) * len(cfg.sizes) * len(cfg.outcomes)
    # reweighting keeps the sparsity pattern, so a sample drawn on the
    # reweighted graph reports the unweighted contact counts
    graph, kept = r.dcsbm_sample(cfg.dcsbm, cfg.base_seed).largest_component()
    reweighted = graph.reweighted_within_blocks(cfg.dcsbm.z[kept], 10.0)
    assert np.array_equal(reweighted.weights.indptr, graph.weights.indptr)
    assert np.array_equal(reweighted.weights.indices, graph.weights.indices)
    assert not np.array_equal(reweighted.weights.data, graph.weights.data)
    sample, _ = r.rds_without_replacement(reweighted, cfg.walk, 5)
    contact = np.diff(graph.weights.indptr)[sample.node]
    assert np.array_equal(sample.degree, contact)


# SHA-256 of the weight-10 RMSE CSV below, recorded before the experiment
# context became an explicit argument
WEIGHT10_RMSE_SHA256 = "d5ef697801c292d6ea8b99aa0917287f4c461308e23253b43bce9ba162e7d708"


def weight10_config(**overrides):
    return small_config(
        replicates=8,
        preferential_weight=10.0,
        estimators=("mean", "vh", "auto", "delta", "sbm_y", "sbm_z"),
        **overrides,
    )


def rmse_csv_bytes(table, tmp_path, name="rmse.csv"):
    path = tmp_path / name
    fileio.write_rmse_table(table, path)
    return path.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_weight10_rmse_digest(tmp_path, jobs):
    data = rmse_csv_bytes(r.run_rmse_experiment(weight10_config(jobs=jobs)), tmp_path)
    assert hashlib.sha256(data).hexdigest() == WEIGHT10_RMSE_SHA256


def test_concurrent_threads_match_sequential_runs():
    configs = [
        small_config(replicates=6),
        small_config(replicates=6, base_seed=977, preferential_weight=10.0,
                     estimators=("mean", "vh")),
    ]
    sequential = [r.run_rmse_experiment(cfg).rows for cfg in configs]
    start = threading.Barrier(len(configs))

    def run(cfg):
        start.wait()
        return r.run_rmse_experiment(cfg).rows

    with ThreadPoolExecutor(max_workers=len(configs)) as pool:
        concurrent = list(pool.map(run, configs))
    assert concurrent == sequential


def test_overlapping_replicates_leave_the_warnings_filters_alone():
    # thread A's replicate starts, then B's; A's ends while B's is still running
    cfg = small_config(estimators=("mean",), sizes=(40,))
    graph, z, outcomes = experiment._prepare_population(cfg)
    ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": outcomes}
    a_open, b_open, a_closed = (threading.Event() for _ in range(3))
    role = threading.local()

    def estimate(name, sample, *, rse=True):
        if role.name == "A":
            a_open.set()
            assert b_open.wait(10)
        else:
            b_open.set()
            assert a_closed.wait(10)
        return r.mean_estimator(sample)

    def replicate(name):
        role.name = name
        if name == "B":
            assert a_open.wait(10)
        results = experiment._run_replicate(ctx, 0)
        if name == "A":
            a_closed.set()
        return results

    with warnings.catch_warnings():
        before = list(warnings.filters)
        with mock.patch.object(experiment, "apply_estimator", estimate):
            with ThreadPoolExecutor(max_workers=2) as pool:
                a, b = pool.map(replicate, ["A", "B"])
        assert warnings.filters == before
    assert a == b and len(a) == 2


SPAWN_SCRIPT = """
import multiprocessing, sys
sys.path.insert(0, sys.argv[1])
from rdsgls import fileio, run_rmse_experiment
from test_experiment import weight10_config

multiprocessing.set_start_method("spawn")
fileio.write_rmse_table(run_rmse_experiment(weight10_config(jobs=2)), sys.argv[2])
"""


def test_spawned_workers_give_the_serial_bytes(tmp_path):
    serial = rmse_csv_bytes(r.run_rmse_experiment(weight10_config()), tmp_path)
    out = tmp_path / "spawn.csv"
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ)
    src = str(Path(r.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT, str(tests_dir), str(out)],
        env=env, check=True, timeout=300,
    )
    assert out.read_bytes() == serial


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), 0.0, -1.0])
def test_preferential_weight_must_be_finite_and_positive(weight):
    with pytest.raises(r.InvalidParametersError, match="preferential_weight"):
        small_config(preferential_weight=weight)


@pytest.mark.parametrize(
    ("overrides", "field"),
    [
        ({"sizes": ()}, "sizes"),
        ({"sizes": (0, 80)}, "sizes"),
        ({"sizes": (40, -5)}, "sizes"),
        ({"jobs": 0}, "jobs"),
        ({"jobs": -3}, "jobs"),
    ],
)
def test_sizes_and_jobs_are_validated(overrides, field):
    with pytest.raises(r.InvalidParametersError, match=field):
        small_config(**overrides)


def test_emit_diagnostics_point_structure():
    params = table1_dcsbm(500, expected_degree=14.0, rng_seed=5)
    graph, kept = r.dcsbm_sample(params, 5).largest_component()
    z = params.z[kept]
    y = (z != 2).astype(float)
    sample, _ = r.rds_without_replacement(
        graph,
        r.WalkConfig(offspring_pmf=(0.0, 0.25, 0.5, 0.25), target_n=150, seed_rule="uniform"),
        9,
        y=y,
        blocks=z,
    )
    dataset = r.emit_diagnostics(sample)
    by_name = {}
    for pt in dataset.points:
        by_name.setdefault(pt.estimator, []).append(pt)
    k_y = len(np.unique(sample.y))
    k_z = len(np.unique(sample.block))
    assert len(by_name["auto"]) == 1
    assert len(by_name["delta"]) == 1
    assert len(by_name["sbm_y"]) == k_y - 1
    assert len(by_name["sbm_z"]) == k_z - 1
    assert len(dataset.grey_grid) == 181
    # blockmodel points share one RSE across their eigenvalues
    assert len({pt.rse for pt in by_name["sbm_z"]}) == 1


def test_emit_diagnostics_constant_outcome():
    tree = r.complete_binary_tree(6)
    sample = r.RdsSample(
        tree=tree,
        node=np.arange(tree.n),
        degree=np.full(tree.n, 3.0),
        outcome=np.full(tree.n, 1.0),
        block=np.zeros(tree.n, dtype=np.int64),
    )
    dataset = r.emit_diagnostics(sample)
    # constant outcome: single-term fits estimate eigenvalue zero, and the
    # outcome defines only one block so no sbm_y point survives
    lam_by_name = {pt.estimator: pt.lambda_hat for pt in dataset.points}
    assert lam_by_name["delta"] == 0.0
    assert "sbm_y" not in lam_by_name
    rse_by_name = {pt.estimator: pt.rse for pt in dataset.points}
    assert abs(rse_by_name["delta"] - r.ranktwo_rse_value(tree, 0.0)) < 1e-12


def test_rank_two_sample_diagnostics_near_grey_line(chain09):
    tree = r.complete_binary_tree(9)
    sample = r.markov_walk(tree, chain09, 6, y=np.array([1.0, 0.0]), blocks=np.array([0, 1]))
    sample = r.RdsSample(
        tree=tree, node=sample.node, degree=np.full(tree.n, 2.0),
        outcome=sample.outcome, block=sample.block,
    )
    dataset = r.emit_diagnostics(sample)
    # the difference-based fit aims below the raw eigenvalue because of its
    # denominator smoothing; the other estimators target 0.8 directly
    d1 = 2 * 0.25 * (1 - 0.8)
    delta_target = 0.8 * d1 / (d1 + tree.n**-0.5)
    for pt in dataset.points:
        target = delta_target if pt.estimator == "delta" else 0.8
        assert abs(pt.lambda_hat - target) < 0.15, pt
        on_line = r.ranktwo_rse_value(tree, pt.lambda_hat)
        if pt.estimator in ("auto", "delta"):
            # single-term fits sit exactly on the reference curve
            assert abs(pt.rse - on_line) / on_line < 1e-10, pt
        else:
            # blockmodel covariances carry the diagonal regularizer, which
            # lifts the plug-in RSE above the pure single-term curve
            assert on_line <= pt.rse < 3.0 * on_line, pt


def test_replicates_skip_the_rse_and_share_each_spectrum():
    cfg = small_config(estimators=tuple(r.ESTIMATORS), replicates=4)
    calls = {"ranktwo_rse_value": 0, "tree_covariance_mass": 0, "qhat_spectrum": 0}

    def counting(name):
        real = getattr(estimators, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with mock.patch.multiple(estimators, **{name: counting(name) for name in calls}):
        r.run_rmse_experiment(cfg)
    assert calls["ranktwo_rse_value"] == calls["tree_covariance_mass"] == 0

    # one spectrum per replicate prefix and distinct label array: the block
    # labels of sbm_z and the outcome-value labels of sbm_y
    graph, z, outcomes = r.experiment._prepare_population(cfg)
    partitions = 0
    for rep in range(cfg.replicates):
        try:
            sample, _ = r.rds_without_replacement(graph, cfg.walk, cfg.base_seed + rep)
        except r.SamplingFailedError:
            continue
        for n in cfg.sizes:
            sub = sample.with_blocks(z).prefix(n)
            labels = {sub.block.tobytes()}
            for y in outcomes.values():
                labels.add(r.ESTIMATORS["sbm_y"].labels(sub.with_outcome(y)).tobytes())
            partitions += len(labels)
    assert partitions > 0
    assert calls["qhat_spectrum"] == partitions
