import hashlib
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import rdsgls as r
from rdsgls import estimators, experiment, fileio
from rdsgls import netmodel
from rdsgls.presets import OFFSPRING_FAST, OFFSPRING_SURVEY, table1_dcsbm


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


# SHA-256 of a desk-shaped RMSE CSV and of its rows' repr (every bit of each
# float), recorded before replicates ran in chunks.  The sparse network makes
# replicate 15 exhaust its one attempt, and the 8-node prefixes often visit
# fewer than 3 blocks, so blockmodel systems of different term counts mix.
DESK_RMSE_SHA256 = "28ca88527870bc4893fa9f0b9c1e33a0161c23de469539ea27938d95e179ac0e"
DESK_ROWS_REPR_SHA256 = "318f3dd29356df5d7b9712acb75fa155d2aa70df482341fd26a59889752808b8"


def desk_config(**overrides):
    base = dict(
        outcomes={
            "aligned": r.OutcomeSpec(kind="block_values", values=(1.0, 1.0, 0.0)),
            "correlated": r.OutcomeSpec(kind="block_bernoulli", values=(0.7, 0.1, 0.9)),
            "uncorrelated": r.OutcomeSpec(kind="bernoulli", values=(0.66,)),
        },
        walk=r.WalkConfig(offspring_pmf=tuple(OFFSPRING_FAST), target_n=60,
                          seed_rule="uniform", max_restarts=0),
        estimators=tuple(r.ESTIMATORS),
        sizes=(8, 60),
        replicates=20,
        base_seed=6,
        dcsbm=table1_dcsbm(800, expected_degree=2.0, rng_seed=6),
    )
    base.update(overrides)
    return r.ExperimentConfig(**base)


@pytest.mark.parametrize("jobs", [1, 2])
def test_desk_rmse_digest(tmp_path, jobs):
    table = r.run_rmse_experiment(desk_config(jobs=jobs))
    assert table.rows[0].failures == 1
    assert hashlib.sha256(rmse_csv_bytes(table, tmp_path)).hexdigest() == DESK_RMSE_SHA256
    assert hashlib.sha256(repr(table.rows).encode()).hexdigest() == DESK_ROWS_REPR_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_sbm_y_on_a_many_valued_column_raises(jobs):
    # the 40-node prefixes take 40 distinct values, too many to define blocks
    n_pop = 200
    cfg = small_config(
        dcsbm=None,
        graph=r.WeightedGraph.from_dense(np.ones((n_pop, n_pop)) - np.eye(n_pop)),
        graph_outcomes={"trait": np.arange(n_pop) * 0.1},
        outcomes={"trait": r.OutcomeSpec(kind="column", values=("trait",))},
        estimators=("mean", "sbm_y"),
        sizes=(20, 40),
        replicates=5,
        jobs=jobs,
    )
    message = "^outcome takes too many distinct values to define blocks$"
    with pytest.raises(r.InvalidParametersError, match=message):
        r.run_rmse_experiment(cfg)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_chunk_raises_what_the_replicate_loop_raises_first(jobs):
    # run estimator by estimator over the chunk, the 80-node mean fails
    # first; run replicate by replicate and size by size, the 40-node vh
    # does, in this process or in a forked worker that inherits the patch
    real = experiment.recipe_columns
    names = {recipe: name for name, recipe in r.ESTIMATORS.items()}

    def failing(recipe, jobs, *, rse=True):
        for sample, _ in jobs:
            if (names[recipe], sample.n) in {("mean", 80), ("vh", 40)}:
                raise r.InvalidSampleError(f"{names[recipe]} at n = {sample.n}")
        return real(recipe, jobs, rse=rse)

    with mock.patch.object(experiment, "recipe_columns", failing):
        with pytest.raises(r.InvalidSampleError, match="^vh at n = 40$"):
            r.run_rmse_experiment(small_config(estimators=("mean", "vh"), replicates=3, jobs=jobs))


def recording_pool(made: list):
    """The real process pool, appending its worker count and the chunks it maps to ``made``."""

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append({"workers": max_workers})
            super().__init__(max_workers, **kwargs)

        def map(self, fn, chunks, **kwargs):
            made[-1]["chunks"] = list(chunks)
            return super().map(fn, made[-1]["chunks"], **kwargs)

    return Pool


def test_the_pool_starts_no_more_workers_than_chunks():
    made = []
    with mock.patch.object(experiment, "ProcessPoolExecutor", recording_pool(made)):
        pooled = r.run_rmse_experiment(small_config(replicates=2, jobs=4))
    assert [pool["workers"] for pool in made] == [2]
    assert pooled.rows == r.run_rmse_experiment(small_config(replicates=2)).rows


def test_serial_and_pooled_runs_hand_out_the_pinned_chunks():
    cheap = dict(estimators=("mean",), sizes=(40,))
    real, ranges = experiment._run_chunk, []

    def recording(ctx, reps):
        ranges.append(reps)
        return real(ctx, reps)

    with mock.patch.object(experiment, "_run_chunk", recording):
        r.run_rmse_experiment(small_config(replicates=20, **cheap))
        assert ranges == [range(0, 16), range(16, 20)]
        ranges.clear()
        r.run_rmse_experiment(small_config(replicates=5, **cheap))
        assert ranges == [range(0, 5)]
    made = []
    with mock.patch.object(experiment, "ProcessPoolExecutor", recording_pool(made)):
        r.run_rmse_experiment(small_config(replicates=100, jobs=2, **cheap))
    (pool,) = made
    chunks = pool["chunks"]
    assert pool["workers"] == 2 and len(chunks) == 8
    assert all(isinstance(chunk, range) and len(chunk) <= 13 for chunk in chunks)
    assert [rep for chunk in chunks for rep in chunk] == list(range(100))


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

    def estimate(recipe, jobs, *, rse=True):
        if role.name == "A":
            a_open.set()
            assert b_open.wait(10)
        else:
            b_open.set()
            assert a_closed.wait(10)
        return estimators.recipe_columns(recipe, jobs, rse=rse)

    def replicate(name):
        role.name = name
        if name == "B":
            assert a_open.wait(10)
        (results,) = experiment._run_chunk(ctx, [0])
        if name == "A":
            a_closed.set()
        return results

    with warnings.catch_warnings():
        before = list(warnings.filters)
        with mock.patch.object(experiment, "recipe_columns", estimate):
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
        ({"sizes": (20, 40, 20)}, "^sizes list 20 twice: 20 40 20$"),
        ({"estimators": ("mean", "vh", "mean")}, "^estimators list mean twice: mean vh mean$"),
    ],
)
def test_sizes_and_jobs_are_validated(overrides, field):
    with pytest.raises(r.InvalidParametersError, match=field):
        small_config(**overrides)


def column_config(**overrides):
    """A ten-node complete graph whose outcome is its attribute column ``trait``."""
    base = dict(
        dcsbm=None,
        graph=r.WeightedGraph.from_dense(np.ones((10, 10)) - np.eye(10)),
        graph_outcomes={"trait": np.arange(10) * 0.5},
        outcomes={"height": r.OutcomeSpec(kind="column", values=("trait",))},
        walk=r.WalkConfig(offspring_pmf=(0.0, 1.0), target_n=5, seed_rule="uniform"),
        sizes=(5,),
    )
    base.update(overrides)
    return small_config(**base)


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        ({"graph_outcomes": {"trait": np.zeros(9)}},
         r"^outcome 'height' \(attribute column 'trait'\) has no value for node 9 of the 10-node "
         r"network$"),
        ({"graph_outcomes": {"trait": np.zeros(11)}},
         r"^outcome 'height' \(attribute column 'trait'\) has 11 values for the 10-node network; "
         r"node 10 does not exist$"),
        ({"graph_outcomes": {"trait": np.r_[np.zeros(4), np.nan, np.zeros(5)]}},
         r"^outcome 'height' \(attribute column 'trait'\) is not finite at node 4$"),
        ({"graph_blocks": np.zeros(9, dtype=np.int64)},
         r"^graph_blocks has no value for node 9 of the 10-node network$"),
        ({"graph_blocks": np.zeros(12, dtype=np.int64)},
         r"^graph_blocks has 12 values for the 10-node network; node 10 does not exist$"),
    ],
)
def test_network_columns_must_cover_every_node(overrides, message):
    with pytest.raises(r.InvalidParametersError, match=message):
        column_config(**overrides)


def test_a_network_column_drives_the_experiment():
    table = r.run_rmse_experiment(column_config(estimators=("mean",), replicates=3))
    assert table.mu_true == {"height": 2.25}
    assert np.isfinite([row.rmse for row in table.rows]).all()


def test_a_chunk_checks_no_sample_per_outcome_column():
    # RdsSample's own checks run per replicate and prefix, never per column
    def count(names):
        specs = desk_config().outcomes
        cfg = desk_config(outcomes={name: specs[name] for name in names}, replicates=6)
        graph, z, columns = experiment._prepare_population(cfg)
        ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": columns}
        real, runs = r.RdsSample.__post_init__, []

        def counting(self):
            runs.append(1)
            real(self)

        with mock.patch.object(r.RdsSample, "__post_init__", counting):
            results = experiment._run_chunk(ctx, range(cfg.replicates))
        assert len(results) == cfg.replicates and any(results)
        return len(runs)

    names = ("aligned", "correlated", "uncorrelated")
    assert count(names) == count(names[:1]) > 0


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
    # each stacked spectrum pass counts the matrices it decomposes
    calls = {"ranktwo_rse_value": 0, "tree_covariance_mass": 0, "_qhat_spectra": 0}

    def counting(name):
        real = getattr(estimators, name)

        def wrapper(*args, **kwargs):
            calls[name] += len(args[0]) if name == "_qhat_spectra" else 1
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
    assert calls["_qhat_spectra"] == partitions


def test_a_chunk_builds_no_report_and_shares_one_vh_reweighting():
    # a chunk reads each estimator's estimates alone: it builds no report,
    # auto and delta share one vh reweighting, and neither an estimator's
    # batch of one nor a one-matrix spectrum runs
    cfg = desk_config(estimators=tuple(r.ESTIMATORS), replicates=6)
    graph, z, columns = experiment._prepare_population(cfg)
    ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": columns}
    watched = {
        estimators.EstimateReport.__post_init__.__code__: "report",
        estimators._Estimator.__call__.__code__: "batch of one",
        estimators.qhat_spectrum.__code__: "qhat_spectrum",
        estimators._reweighted.__code__: "reweighting",
    }
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            name = watched[frame.f_code]
            calls.append(f"{name} {frame.f_locals['policy']}" if name == "reweighting" else name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        results = experiment._run_chunk(ctx, range(cfg.replicates))
    finally:
        sys.setprofile(previous)
    assert sum(result is not None for result in results) > 1
    assert sorted(calls) == ["reweighting fgls", "reweighting fgls", "reweighting none",
                             "reweighting vh"]


def test_a_chunk_drops_each_reweight_step_after_its_last_estimator():
    # the reweight steps kept when each estimator starts: none for mean and
    # vh, vh for auto and delta, one fgls step each for sbm_y and sbm_z
    cfg = desk_config(estimators=tuple(r.ESTIMATORS), replicates=3)
    graph, z, columns = experiment._prepare_population(cfg)
    ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": columns}
    real, kept = experiment.recipe_columns, []

    def recording(recipe, jobs, **kwargs):
        kept.append(sorted(policy for policy, _ in jobs.reweighted))
        return real(recipe, jobs, **kwargs)

    with mock.patch.object(experiment, "recipe_columns", recording):
        results = experiment._run_chunk(ctx, range(cfg.replicates))
    assert any(result is not None for result in results)
    assert kept == [[], ["none"], [], ["vh"], [], []]


def test_a_chunk_runs_each_blockmodel_stage_in_one_call():
    # sbm_y and sbm_z each make one blockmodel call for all the fgls normalizers
    # of a chunk and one for all its estimates; a call per job or column fails
    def calls(names):
        cfg = desk_config(estimators=names, replicates=6)
        graph, z, columns = experiment._prepare_population(cfg)
        ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": columns}
        real, made = estimators._blockmodel_gls_columns, []

        def counting(*args):
            made.append(1)
            return real(*args)

        # the reweight step calls the module's blockmodel form, and the recipes
        # hold it as their estimator's: count both
        sbm = estimators._Estimator("sbm", counting)
        fgls = {name: r.ESTIMATORS[name]._replace(estimate=sbm) for name in ("sbm_y", "sbm_z")}
        with (mock.patch.object(estimators, "_blockmodel_gls_columns", counting),
              mock.patch.dict(r.ESTIMATORS, fgls)):
            results = experiment._run_chunk(ctx, range(cfg.replicates))
        assert sum(result is not None for result in results) > 1
        return len(made)

    assert calls(("sbm_y",)) == calls(("sbm_z",)) == 2
    assert calls(tuple(r.ESTIMATORS)) == 4
