from pathlib import Path

import numpy as np
import pytest

import rdsgls as r
from rdsgls import fileio


def test_edge_list_round_trip(tmp_path):
    graph = r.WeightedGraph.from_edges(
        5, [(0, 1, 1.0), (1, 2, 2.5), (2, 3, 1.0), (3, 4, 0.25), (0, 0, 3.0)]
    )
    path = tmp_path / "g.txt"
    fileio.write_edge_list(graph, path)
    back = fileio.read_edge_list(path)
    assert back.num_nodes == 5
    assert graph.edge_list() == back.edge_list()


def test_edge_list_default_weight_and_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\n0 1\n1 2 2.0\n\n")
    graph = fileio.read_edge_list(path)
    assert graph.num_nodes == 3
    assert graph.degrees.tolist() == [1.0, 3.0, 2.0]


def test_edge_list_duplicate_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 0 2.0\n")
    with pytest.raises(r.ParseError):
        fileio.read_edge_list(path)


def test_edge_list_parse_error_carries_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\nnot numbers here at all x\n")
    with pytest.raises(r.ParseError) as err:
        fileio.read_edge_list(path)
    assert err.value.lineno == 2


def test_attributes_round_trip(tmp_path):
    path = tmp_path / "attrs.csv"
    blocks = np.array([0, 1, 1, 0])
    outcomes = {"y1": np.array([0.5, 1.0, 0.0, 0.125])}
    fileio.write_attributes(path, blocks=blocks, block_names=["a", "b"], outcomes=outcomes)
    b, names, out = fileio.read_attributes(path)
    assert b.tolist() == blocks.tolist()
    assert names == ["a", "b"]
    assert np.allclose(out["y1"], outcomes["y1"])


def test_attributes_need_node_column(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text("id,block\n0,a\n")
    with pytest.raises(r.ParseError):
        fileio.read_attributes(path)


def test_tree_round_trip(tmp_path):
    tree, _ = r.galton_watson_tree([0.2, 0.4, 0.4], 37, rng_seed=5)
    path = tmp_path / "tree.csv"
    fileio.write_tree(tree, path)
    back = fileio.read_tree(path)
    assert np.array_equal(back.parent, tree.parent)


def test_tree_rejects_out_of_order(tmp_path):
    path = tmp_path / "tree.csv"
    path.write_text("node,parent\n0,-1\n2,0\n")
    with pytest.raises(r.ParseError) as err:
        fileio.read_tree(path)
    assert err.value.lineno == 3


def test_sample_round_trip(tmp_path, chain09):
    tree = r.complete_binary_tree(4)
    sample = r.markov_walk(tree, chain09, 3, y=np.array([1.0, 0.0]), blocks=np.array([0, 1]))
    path = tmp_path / "s.csv"
    fileio.write_sample(sample, path)
    back = fileio.read_sample(path)
    assert np.array_equal(back.node, sample.node)
    assert np.allclose(back.outcome, sample.outcome)
    assert np.array_equal(back.block, sample.block)
    assert np.allclose(back.degree, sample.degree)


def test_report_json_golden_format():
    rep = r.EstimateReport(estimator="mean", mu_hat=0.7, n=5)
    text = fileio.report_to_json(rep)
    assert '"mu_hat": 0.69999999999999996' in text
    assert text.endswith("}\n")
    assert float(text.split('"mu_hat": ')[1].split(",")[0]) == 0.7


def test_config_parsing(tmp_path):
    cfg_text = """
[network]
source = dcsbm
nodes = 300
expected_degree = 10
block_matrix = table1
proportions = table1
theta = uniform

[outcomes]
aligned = block_values:1,1,0
corr = block_bernoulli:0.7,0.1,0.9
unc = bernoulli:0.66

[walk]
offspring = survey
seed_rule = uniform
max_restarts = 50

[estimators]
names = mean vh

[run]
sizes = 30 60
replicates = 4
seed = 11
jobs = 1
"""
    path = tmp_path / "cfg.ini"
    path.write_text(cfg_text)
    cfg = fileio.load_experiment_config(path)
    assert cfg.dcsbm is not None
    assert cfg.dcsbm.num_nodes == 300
    assert cfg.walk.target_n == 60
    assert cfg.estimators == ("mean", "vh")
    assert set(cfg.outcomes) == {"aligned", "corr", "unc"}
    table = r.run_rmse_experiment(cfg)
    assert len(table.rows) == 2 * 2 * 3


def test_readme_config_loads_as_written(tmp_path):
    # configparser keeps inline "; comments" in values, so the README's
    # comments must sit on their own lines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "experiment.ini"
    path.write_text(block)
    cfg = fileio.load_experiment_config(path)
    assert cfg.dcsbm is not None and cfg.dcsbm.num_nodes == 5000
    assert cfg.sizes == (100, 500)
    assert cfg.walk.seed_rule == "uniform"
    assert cfg.preferential_weight == 1.0
    assert cfg.estimators == ("mean", "vh", "auto", "delta", "sbm_y", "sbm_z")
    assert set(cfg.outcomes) == {"aligned", "correlated", "uncorrelated"}


def test_config_seed_override(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[network]\nsource = dcsbm\nnodes = 200\nexpected_degree = 8\n"
        "[outcomes]\na = bernoulli:0.5\n[run]\nsizes = 20\nreplicates = 2\nseed = 5\n"
    )
    cfg = fileio.load_experiment_config(path, seed_override=99)
    assert cfg.base_seed == 99
