import json
from pathlib import Path

import numpy as np
import pytest

import rdsgls as r
from rdsgls import cli, fileio
from rdsgls.cli import dispatch

DATA = Path(__file__).parent / "data"


def test_estimate_vh_golden(tmp_path):
    out = tmp_path / "report.json"
    code = dispatch(
        ["estimate", "--sample", str(DATA / "vh_fixture.csv"), "--estimator", "vh",
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "vh_golden.json").read_bytes()
    # hand check: outcomes (1,0,1,0,1) with degrees (1,2,4,4,2) give
    # (1/1 + 1/4 + 1/2) / (1/1 + 1/2 + 1/4 + 1/4 + 1/2) = 1.75 / 2.5
    assert json.loads(out.read_text())["mu_hat"] == 1.75 / 2.5


def test_usage_error_returns_one():
    assert dispatch(["estimate", "--sample", "x.csv"]) == 1
    assert dispatch(["no-such-command"]) == 1


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys):
    out = tmp_path / "out"
    sample = str(DATA / "vh_fixture.csv")
    calls = [
        ["estimate", "--sample", sample],
        ["estimate", "--sample", sample, "--estimator", "vh", "--out", str(out)],
        ["no-such-command"],
        ["figure1", "--p", "0.6,0.9", "--levels", "5..7", "--out", str(out)],
        ["estimate", "--sample", sample, "--estimator", "median", "--out", str(out)],
        ["diagnose", "--sample", sample, "--out", str(out)],
        ["estimate", "--sample", sample, "--estimator", "auto", "--reweight", "vh",
         "--out", str(out)],
        ["estimate", "--sample", str(tmp_path / "missing.csv"), "--estimator", "vh",
         "--out", str(out)],
        ["--help"],
    ]

    def run(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            out.unlink(missing_ok=True)
            code = dispatch(argv)
            written = out.read_bytes() if out.exists() else None
            seen.append((code, capsys.readouterr(), written))
        return seen

    fresh = run(fresh=True)
    assert [code for code, _, _ in fresh] == [1, 0, 1, 0, 1, 0, 0, 2, 0]
    assert run(fresh=False) == fresh


@pytest.mark.parametrize("weight", ["nan", "inf", "0", "-1"])
def test_experiment_rejects_bad_preferential_weight(tmp_path, capsys, weight):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = dcsbm\nnodes = 200\nexpected_degree = 10\ntheta = uniform\n"
        "[outcomes]\naligned = block_values:1,1,0\n"
        "[estimators]\nnames = mean vh\n"
        f"[walk]\noffspring = survey\nseed_rule = uniform\npreferential_weight = {weight}\n"
        "[run]\nsizes = 30\nreplicates = 3\nseed = 8\n"
    )
    out = tmp_path / "rmse.csv"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert "preferential_weight must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("run", "flags", "field"),
    [
        ("sizes =", [], "sizes"),
        ("sizes = 0", [], "sizes"),
        ("sizes = 30 -5", [], "sizes"),
        ("sizes = 30\njobs = 0", [], "jobs"),
        ("sizes = 30\njobs = -3", [], "jobs"),
        ("sizes = 30", ["--jobs", "0"], "jobs"),
    ],
)
def test_experiment_rejects_bad_sizes_and_jobs(tmp_path, capsys, run, flags, field):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = dcsbm\nnodes = 200\nexpected_degree = 10\ntheta = uniform\n"
        "[outcomes]\naligned = block_values:1,1,0\n"
        "[estimators]\nnames = mean vh\n"
        "[walk]\noffspring = survey\nseed_rule = uniform\n"
        f"[run]\n{run}\nreplicates = 3\nseed = 8\n"
    )
    out = tmp_path / "rmse.csv"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert f"error: {field} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("flags", "field"),
    [
        (["--seed-rule", "-1"], "seed_rule node id"),
        (["--seed-rule", "6"], "seed_rule node 6"),
        (["--max-restarts", "-1"], "max_restarts"),
    ],
)
def test_simulate_rejects_bad_walk_settings(tmp_path, capsys, flags, field):
    edges = tmp_path / "edges.csv"
    fileio.write_edge_list(r.WeightedGraph.from_dense(np.ones((6, 6)) - np.eye(6)), edges)
    out = tmp_path / "sample.csv"
    argv = ["simulate", "--edges", str(edges), "--target", "3", "--out", str(out), *flags]
    assert dispatch(argv) == 2
    assert f"error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_error_returns_two(tmp_path):
    out = tmp_path / "r.json"
    code = dispatch(
        ["estimate", "--sample", str(tmp_path / "missing.csv"), "--estimator", "vh",
         "--out", str(out)]
    )
    assert code == 2


def test_help_returns_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_figure1_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    code = dispatch(["figure1", "--p", "0.6,0.75,0.9", "--levels", "5..10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,levels,n,var_gls,var_mean,ratio"
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(ratios) == 3 * 6
    assert all(0 < x < 1 for x in ratios)


def test_figure1_rejects_empty_levels(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = dispatch(["figure1", "--p", "0.6,0.9", "--levels", "9..5", "--out", str(out)])
    assert code == 2
    assert "levels must list one or more tree sizes" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_deterministic(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = dcsbm\nnodes = 300\nexpected_degree = 10\ntheta = uniform\n"
        "[outcomes]\naligned = block_values:1,1,0\n"
        "[run]\nsizes = 50\nreplicates = 1\nseed = 21\n"
    )
    edges = tmp_path / "net.txt"
    attrs = tmp_path / "attrs.csv"
    assert dispatch(["gen-graph", "--config", str(cfg), "--out-edges", str(edges),
                     "--out-attributes", str(attrs)]) == 0
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    common = ["simulate", "--edges", str(edges), "--attributes", str(attrs),
              "--outcome", "aligned", "--target", "50", "--seed", "33"]
    assert dispatch(common + ["--out", str(s1)]) == 0
    assert dispatch(common + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    sample = fileio.read_sample(s1)
    assert sample.n == 50
    assert len(set(sample.node.tolist())) == 50


def test_gen_graph_round_trip(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = dcsbm\nnodes = 150\nexpected_degree = 8\ntheta = uniform\n"
        "[outcomes]\nu = bernoulli:0.5\n"
        "[run]\nsizes = 20\nreplicates = 1\nseed = 3\n"
    )
    edges = tmp_path / "net.txt"
    attrs = tmp_path / "attrs.csv"
    assert dispatch(["gen-graph", "--config", str(cfg), "--out-edges", str(edges),
                     "--out-attributes", str(attrs)]) == 0
    graph = fileio.read_edge_list(edges, allow_isolated=True)
    rewritten = tmp_path / "again.txt"
    fileio.write_edge_list(graph, rewritten)
    again = fileio.read_edge_list(rewritten, allow_isolated=True)
    assert graph.edge_list() == again.edge_list()
    blocks, names, outcomes = fileio.read_attributes(attrs)
    assert blocks.shape[0] >= graph.num_nodes
    assert "u" in outcomes


def test_diagnose_csv(tmp_path, chain09):
    tree = r.complete_binary_tree(7)
    sample = r.markov_walk(tree, chain09, 5, y=np.array([1.0, 0.0]), blocks=np.array([0, 1]))
    sample = r.RdsSample(
        tree=tree, node=sample.node, degree=np.full(tree.n, 2.0),
        outcome=sample.outcome, block=sample.block,
    )
    spath = tmp_path / "s.csv"
    fileio.write_sample(sample, spath)
    out = tmp_path / "diag.csv"
    assert dispatch(["diagnose", "--sample", str(spath), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "estimator,lambda_hat,rse,variant"
    names = {line.split(",")[0] for line in lines[1:]}
    assert "ranktwo_curve" in names and "auto" in names
    grey = [line for line in lines[1:] if line.startswith("ranktwo_curve")]
    assert len(grey) == 181


def test_experiment_cli(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = dcsbm\nnodes = 250\nexpected_degree = 10\ntheta = uniform\n"
        "[outcomes]\naligned = block_values:1,1,0\n"
        "[estimators]\nnames = mean vh\n"
        "[walk]\noffspring = survey\nseed_rule = uniform\n"
        "[run]\nsizes = 30\nreplicates = 3\nseed = 8\n"
    )
    out = tmp_path / "rmse.csv"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "estimator,n,outcome,rmse,bias,sd,replicates,failures"
    assert len(lines) == 3  # header + 2 estimators x 1 size x 1 outcome


def _edgelist_config(tmp_path, outcomes):
    """Experiment config over a 120-node random graph with two blocks and a 0/1 trait."""
    rng = np.random.default_rng(1)
    n = 120
    W = (rng.random((n, n)) < 0.12).astype(float)
    W = np.triu(W, 1)
    W = W + W.T
    graph = r.WeightedGraph.from_dense(W, allow_isolated=True)
    edges = tmp_path / "g.txt"
    attrs = tmp_path / "a.csv"
    fileio.write_edge_list(graph, edges)
    blocks = rng.integers(0, 2, n)
    fileio.write_attributes(
        attrs, blocks=blocks, outcomes={"trait": rng.integers(0, 2, n).astype(float)}
    )
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[network]\nsource = edgelist\nedges = {edges.name}\nattributes = {attrs.name}\n"
        f"[outcomes]\n{outcomes}\n"
        "[estimators]\nnames = vh sbm_z\n"
        "[walk]\noffspring = survey\nseed_rule = uniform\n"
        "[run]\nsizes = 25\nreplicates = 3\nseed = 5\n"
    )
    return cfg


def test_experiment_edgelist_source(tmp_path):
    cfg = _edgelist_config(tmp_path, "trait = column:trait")
    out = tmp_path / "rmse.csv"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_column_outcome_reads_the_named_column(tmp_path):
    tables = {}
    for name in ("trait", "mine"):
        cfg = _edgelist_config(tmp_path, f"{name} = column:trait")
        out = tmp_path / f"{name}.csv"
        assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        tables[name] = out.read_text().replace(f",{name},", ",OUTCOME,")
    assert tables["mine"] == tables["trait"]


BAD_OUTCOMES = [  # (network source, [outcomes] line, expected error text)
    ("edgelist", "trait = column:nope", "outcome 'trait': the network has no attribute column"
     " 'nope'"),
    ("dcsbm", "trait = column:trait", "outcome 'trait': the network has no attribute column"
     " 'trait'"),
    ("dcsbm", "trait = column:", "outcome 'trait' = 'column:': column outcomes name one"),
    ("dcsbm", "aligned = block_values:1,1",
     "outcome 'aligned': block_values gives 2 values for 3 blocks"),
    ("dcsbm", "corr = block_bernoulli:0.7,0.1,0.9,0.2",
     "outcome 'corr': block_bernoulli gives 4 values for 3 blocks"),
    ("edgelist", "aligned = block_values:1,1,0",
     "outcome 'aligned': block_values gives 3 values for 2 blocks"),
    ("dcsbm", "u = bernoulli:", "outcome 'u' = 'bernoulli:': bernoulli needs finite numeric"),
    ("dcsbm", "u = bernoulli:1.5", "outcome 'u' = 'bernoulli:1.5': bernoulli rates must lie"),
    ("dcsbm", "u = bernoulli:0.2 0.3", "outcome 'u' = 'bernoulli:0.2 0.3': bernoulli takes one"),
    ("dcsbm", "corr = block_bernoulli:0.7,-0.1,0.9", "block_bernoulli rates must lie in [0, 1]"),
    ("dcsbm", "aligned = block_values:1,nan,0", "block_values needs finite numeric values"),
    ("dcsbm", "aligned = block_values:1,1,-inf", "block_values needs finite numeric values"),
    ("dcsbm", "aligned = block_values:1,one,0", "outcome 'aligned' = 'block_values:1,one,0'"),
    ("dcsbm", "x = block_median:1,1,0", "outcome 'x' = 'block_median:1,1,0': unknown outcome"),
]


@pytest.mark.parametrize("command", ["experiment", "gen-graph"])
@pytest.mark.parametrize(
    ("network", "outcome", "message"), BAD_OUTCOMES,
    ids=[outcome for _, outcome, _ in BAD_OUTCOMES],
)
def test_bad_outcome_specs_exit_two(tmp_path, capsys, command, network, outcome, message):
    if network == "edgelist":
        cfg = _edgelist_config(tmp_path, outcome)
    else:
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[network]\nsource = dcsbm\nnodes = 200\nexpected_degree = 10\ntheta = uniform\n"
            f"[outcomes]\n{outcome}\n"
            "[run]\nsizes = 30\nreplicates = 3\nseed = 8\n"
        )
    outs = [tmp_path / "out.csv", tmp_path / "edges.txt", tmp_path / "attrs.csv"]
    argv = {
        "experiment": ["experiment", "--out", str(outs[0])],
        "gen-graph": ["gen-graph", "--out-edges", str(outs[1]), "--out-attributes", str(outs[2])],
    }[command]
    assert dispatch([*argv, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not any(path.exists() for path in outs)


def test_seed_env_fallback(tmp_path, monkeypatch):
    from rdsgls.cli import _resolve_seed

    monkeypatch.delenv("RDSGLS_SEED", raising=False)
    assert _resolve_seed(None) == r.DEFAULT_SEED
    monkeypatch.setenv("RDSGLS_SEED", "4242")
    assert _resolve_seed(None) == 4242
    assert _resolve_seed(7) == 7


def _fixture_with(tmp_path, line, column, value):
    """Copy of the VH fixture with one cell replaced (line 2 is the first record)."""
    rows = [row.split(",") for row in (DATA / "vh_fixture.csv").read_text().splitlines()]
    rows[line - 1][column] = value
    path = tmp_path / "sample.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return path


def test_estimate_rejects_blank_or_nonfinite_cells(tmp_path, capsys):
    cases = [(4, 3, ""), (3, 3, "nan"), (5, 3, "inf"), (6, 4, "nan"), (2, 4, "-inf")]
    for line, column, value in cases:
        sample = _fixture_with(tmp_path, line, column, value)
        for estimator in ("mean", "auto", "delta"):
            out = tmp_path / "r.json"
            code = dispatch(["estimate", "--sample", str(sample), "--estimator", estimator,
                             "--out", str(out)])
            assert code == 2
            assert f"sample.csv:{line}:" in capsys.readouterr().err
            assert not out.exists()


def test_estimate_tree_errors_name_file_and_line(tmp_path, capsys):
    header = "node,parent,pop_node,y,degree,block\n"
    cases = [
        ("", 2, "node 0 must be the root (parent -1)"),
        ("0,0,7,1,3,a\n1,0,2,0,2,b\n", 2, "node 0 must be the root (parent -1)"),
        ("0,-1,7,1,3,a\n1,0,2,0,2,b\n2,3,9,1,4,a\n3,1,4,0,1,b\n", 4,
         "parent[tau] must name an earlier node for every tau > 0"),
        ("0,-1,7,1,3,a\n1,-1,2,0,2,b\n", 3,
         "parent[tau] must name an earlier node for every tau > 0"),
    ]
    sample = tmp_path / "sample.csv"
    out = tmp_path / "r.json"
    for body, line, message in cases:
        sample.write_text(header + body)
        code = dispatch(["estimate", "--sample", str(sample), "--estimator", "mean",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {sample}:{line}: {message}\n"
        assert not out.exists()


def test_estimate_rejects_integers_past_64_bits(tmp_path, capsys):
    for line, column, value in ((3, 2, "9223372036854775808"), (4, 1, "-9223372036854775809")):
        sample = _fixture_with(tmp_path, line, column, value)
        out = tmp_path / "r.json"
        code = dispatch(["estimate", "--sample", str(sample), "--estimator", "mean",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {sample}:{line}: integer outside the 64-bit range\n"
        )
        assert not out.exists()


def test_estimate_vh_reweight_rejects_zero_degree(tmp_path, capsys):
    sample = _fixture_with(tmp_path, 3, 4, "0")
    for estimator in ("auto", "delta"):
        out = tmp_path / "r.json"
        code = dispatch(["estimate", "--sample", str(sample), "--estimator", estimator,
                         "--reweight", "vh", "--out", str(out)])
        assert code == 2
        assert "reported degrees must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_experiment_rejects_nonfinite_attribute(tmp_path, capsys):
    rng = np.random.default_rng(4)
    n = 120
    W = np.triu((rng.random((n, n)) < 0.12).astype(float), 1)
    edges = tmp_path / "g.txt"
    fileio.write_edge_list(r.WeightedGraph.from_dense(W + W.T, allow_isolated=True), edges)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = edgelist\nedges = g.txt\nattributes = a.csv\n"
        "[outcomes]\ntrait = column:trait\n"
        "[estimators]\nnames = mean vh auto delta\n"
        "[walk]\noffspring = survey\nseed_rule = uniform\n"
        "[run]\nsizes = 25\nreplicates = 3\nseed = 5\n"
    )
    for value in (np.nan, np.inf):
        trait = rng.integers(0, 2, n).astype(float)
        trait[37] = value
        fileio.write_attributes(tmp_path / "a.csv", outcomes={"trait": trait})
        out = tmp_path / "rmse.csv"
        assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert "a.csv:39: column 'trait' must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_nonfinite_edge_weight(tmp_path, capsys):
    edges = tmp_path / "e.txt"
    for value in ("inf", "nan"):
        edges.write_text(f"0 1\n1 2 {value}\n2 0\n")
        out = tmp_path / "s.csv"
        code = dispatch(["simulate", "--edges", str(edges), "--target", "2", "--seed", "1",
                         "--out", str(out)])
        assert code == 2
        assert "e.txt:2: edge weight must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


BAD_PROPORTIONS = [
    ("0.5 0.5", "proportions gives 2 values for the 3 blocks of block_matrix"),
    ("-0.1 0.6 0.5", "proportions must be a probability vector"),
    ("0.5 0.7 0.1", "proportions must be a probability vector"),
]


@pytest.mark.parametrize(("proportions", "message"), BAD_PROPORTIONS,
                         ids=["length", "negative", "sum"])
def test_bad_proportions_exit_two(tmp_path, capsys, proportions, message):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[network]\nsource = dcsbm\nnodes = 200\nexpected_degree = 10\ntheta = uniform\n"
        f"proportions = {proportions}\n"
        "[outcomes]\naligned = block_values:1,1,0\n"
        "[run]\nsizes = 30\nreplicates = 3\nseed = 8\n"
    )
    out = tmp_path / "rmse.csv"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# a valid experiment config: its sections' key = value lines
VALID_CONFIG = {
    "network": {"source": "dcsbm", "nodes": "200", "expected_degree": "10",
                "theta": "uniform"},
    "outcomes": {"aligned": "block_values:1,1,0"},
    "walk": {"offspring": "survey", "preferential_weight": "1", "max_restarts": "50"},
    "run": {"sizes": "30", "replicates": "3", "seed": "8", "jobs": "1"},
}
UNPARSED_NUMBERS = [
    ("run", "replicates", "ten"),
    ("run", "sizes", "30 forty"),
    ("run", "seed", "1.5"),
    ("run", "jobs", "two"),
    ("walk", "preferential_weight", "heavy"),
    ("walk", "max_restarts", "many"),
    ("network", "nodes", "2e2"),
    ("network", "expected_degree", "abc"),
    ("network", "block_matrix", "1 x; 2 3"),
    ("network", "proportions", "0.5 half"),
]


def _config_with(tmp_path, section, key, value):
    """``VALID_CONFIG`` written out, with ``[section] key`` set to ``value``."""
    text = ""
    for name, items in VALID_CONFIG.items():
        items = {**items, key: value} if name == section else items
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize(("section", "key", "value"), UNPARSED_NUMBERS,
                         ids=[f"{s}-{k}" for s, k, _ in UNPARSED_NUMBERS])
def test_unparsed_config_numbers_exit_two(tmp_path, capsys, section, key, value):
    cfg = _config_with(tmp_path, section, key, value)
    out = tmp_path / "rmse.csv"
    assert dispatch(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: [{section}] {key} = {value!r}: ")
    assert not out.exists()
