import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdsgls as r
from rdsgls import fileio
from rdsgls.presets import table1_dcsbm


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


# Malformed and unusual sample files. The expected results were recorded
# from the row-by-row csv parser before the columnar fast path existed: an
# error is (type, line, message), a parsed file is its arrays.
SAMPLE_HEADER = "node,parent,pop_node,y,degree,block"
SAMPLE_ROWS = ["0,-1,7,1,3,a", "1,0,2,0,2,b", "2,0,9,1,4,a", "3,1,4,0.5,1,b"]


def _sample_text(*rows, sep="\n", tail="\n"):
    return sep.join((SAMPLE_HEADER, *rows)) + tail


def _swap(k, row):
    rows = list(SAMPLE_ROWS)
    rows[k] = row
    return rows


def _blank_column(k):
    out = []
    for row in SAMPLE_ROWS:
        cells = row.split(",")
        cells[k] = ""
        out.append(",".join(cells))
    return out


SAMPLE_CASES = {
    "wrong_header": "node,parent,pop,y,degree,block\n" + "\n".join(SAMPLE_ROWS) + "\n",
    "five_columns": _sample_text(*_swap(1, "1,0,2,0,2")),
    "seven_columns": _sample_text(*_swap(1, "1,0,2,0,2,b,x")),
    "blank_middle_line": _sample_text(*SAMPLE_ROWS[:2], "", *SAMPLE_ROWS[2:]),
    "trailing_blank_line": _sample_text(*SAMPLE_ROWS, tail="\n\n"),
    "quoted_field": _sample_text(*_swap(1, '1,0,2,0,2,"b"')),
    "nodes_out_of_order": _sample_text(*_swap(1, "2,0,2,0,2,b")),
    "float_in_int_column": _sample_text(*_swap(2, "2,0,9.0,1,4,a")),
    "underscore_digits": _sample_text(*_swap(2, "2,0,1_0,1,4_0,a")),
    "blank_y_on_some_rows": _sample_text(*_swap(2, "2,0,9,,4,a")),
    "nan_y": _sample_text(*_swap(2, "2,0,9,nan,4,a")),
    "inf_y": _sample_text(*_swap(3, "3,1,4,inf,1,b")),
    "nan_degree": _sample_text(*_swap(1, "1,0,2,0,nan,b")),
    "inf_degree": _sample_text(*_swap(3, "3,1,4,0.5,-inf,b")),
    "crlf_line_ends": _sample_text(*SAMPLE_ROWS, sep="\r\n", tail="\r\n"),
    "lone_carriage_return": _sample_text(*SAMPLE_ROWS, sep="\r", tail="\r"),
    "no_final_newline": _sample_text(*SAMPLE_ROWS, tail=""),
    "blank_y_everywhere": _sample_text(*_blank_column(3)),
    "blank_blocks_everywhere": _sample_text(*_blank_column(5)),
    "some_blocks_blank": _sample_text(*_swap(0, "0,-1,7,1,3,")),
    "leading_space_label": _sample_text(*_swap(0, "0,-1,7,1,3, a")),
    "form_feed_label": _sample_text(*_swap(1, "1,0,2,0,2,b\x0cc")),
    "nul_in_label": _sample_text(*_swap(1, "1,0,2,0,2,a\x00")),
    "separator_in_label": _sample_text(*_swap(1, "1,0,2,0,2,\x1fb")),
    "separator_in_number": _sample_text(*_swap(1, "1,0,2\x1c,0,2,b")),
    "unicode_digit": _sample_text(*_swap(1, "1,0,٣,0,2,b")),
    "huge_int": _sample_text(*_swap(1, "1,0,9223372036854775808,0,2,b")),
    "huge_negative_parent": _sample_text(*_swap(2, "2,-9223372036854775809,9,1,4,a")),
    "header_only": SAMPLE_HEADER + "\n",
}


def _parsed(node=(7, 2, 9, 4), degree=(3.0, 2.0, 4.0, 1.0), outcome=(1.0, 0.0, 1.0, 0.5),
            block=(0, 1, 0, 1)):
    return {"parent": [-1, 0, 0, 1], "node": list(node), "degree": list(degree),
            "outcome": None if outcome is None else list(outcome),
            "block": None if block is None else list(block)}


SAMPLE_EXPECTED = {
    "wrong_header": ("ParseError", 1,
                     "sample file must start with node,parent,pop_node,y,degree,block"),
    "five_columns": ("ParseError", 3, "expected 6 columns"),
    "seven_columns": ("ParseError", 3, "expected 6 columns"),
    "blank_middle_line": ("ParseError", 4, "expected 6 columns"),
    "trailing_blank_line": ("ParseError", 6, "expected 6 columns"),
    "quoted_field": _parsed(),
    "nodes_out_of_order": ("ParseError", 3, "nodes must appear in order"),
    "float_in_int_column": ("ParseError", 4, "malformed numeric field"),
    "underscore_digits": _parsed(node=(7, 2, 10, 4), degree=(3.0, 2.0, 40.0, 1.0)),
    "blank_y_on_some_rows": ("ParseError", 4, "y is blank here but given on other rows"),
    "nan_y": ("ParseError", 4, "y must be finite"),
    "inf_y": ("ParseError", 5, "y must be finite"),
    "nan_degree": ("ParseError", 3, "degree must be finite"),
    "inf_degree": ("ParseError", 5, "degree must be finite"),
    "crlf_line_ends": _parsed(),
    "lone_carriage_return": _parsed(),
    "no_final_newline": _parsed(),
    "blank_y_everywhere": _parsed(outcome=None),
    "blank_blocks_everywhere": _parsed(block=None),
    "some_blocks_blank": _parsed(block=(0, 2, 1, 2)),
    "leading_space_label": _parsed(block=(0, 2, 1, 2)),
    "form_feed_label": _parsed(block=(0, 2, 0, 1)),
    "nul_in_label": _parsed(block=(0, 1, 0, 2)),
    "separator_in_label": _parsed(block=(1, 0, 1, 2)),
    "separator_in_number": ("ParseError", 3, "malformed numeric field"),
    "unicode_digit": _parsed(node=(7, 3, 9, 4)),
    "huge_int": ("ParseError", 3, "integer outside the 64-bit range"),
    "huge_negative_parent": ("ParseError", 4, "integer outside the 64-bit range"),
    "header_only": ("ParseError", 2, "node 0 must be the root (parent -1)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_read_sample_malformed_table(tmp_path, case):
    _assert_reads_as_recorded(tmp_path, case)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_read_sample_row_parser_only_table(tmp_path, monkeypatch, case):
    # every body goes to the row parser
    monkeypatch.setattr(fileio, "_sample_columns", mock.Mock(side_effect=ValueError))
    _assert_reads_as_recorded(tmp_path, case)


def _assert_reads_as_recorded(tmp_path, case):
    path = tmp_path / "sample.csv"
    with open(path, "w", newline="") as fh:
        fh.write(SAMPLE_CASES[case])
    expected = SAMPLE_EXPECTED[case]
    if isinstance(expected, tuple):
        kind, lineno, message = expected
        with pytest.raises(Exception) as err:
            fileio.read_sample(path)
        assert type(err.value).__name__ == kind
        assert getattr(err.value, "lineno", None) == lineno
        prefix = "" if lineno is None else f"{path}:{lineno}: "
        assert str(err.value) == prefix + message
        return
    sample = fileio.read_sample(path)
    got = {
        "parent": sample.tree.parent.tolist(),
        "node": sample.node.tolist(),
        "degree": sample.degree.tolist(),
        "outcome": None if sample.outcome is None else sample.outcome.tolist(),
        "block": None if sample.block is None else sample.block.tolist(),
    }
    assert got == expected


def _read_by_rows(path):
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return fileio._sample_from_columns(path, *fileio._sample_rows(path, rows))


def _outcome(read, path):
    """Arrays of a parsed sample, or the exception type and message."""
    try:
        sample = read(path)
    except (r.RdsglsError, ValueError) as exc:
        return type(exc), str(exc)
    return [
        None if a is None else (a.dtype, a.tolist())
        for a in (sample.tree.parent, sample.node, sample.degree, sample.outcome, sample.block)
    ]


_EXTREME = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-300, -0.0, 1e300, 0.0, 1.0]
)
_LABEL = st.text(max_size=6) | st.sampled_from(["a,b", '"q"', 'x"y', "\x0c", " lead", ""])


@st.composite
def _written_samples(draw):
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["path", "star", "random"]))
    if shape == "path":
        parent = np.arange(-1, n - 1)
    elif shape == "star":
        parent = np.r_[-1, np.zeros(n - 1, dtype=np.int64)]
    else:
        parent = np.array([-1] + [draw(st.integers(0, tau - 1)) for tau in range(1, n)])
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["none", "ints", "names"]))
    names = None
    block = None
    if kind == "names":
        names = draw(st.lists(_LABEL, min_size=1, max_size=4, unique=True))
    if kind != "none":
        block = column(st.integers(0, len(names) - 1 if names else 5))
    sample = r.RdsSample(
        tree=r.ReferralTree(parent),
        node=column(st.integers(-(2**63), 2**63 - 1)),
        degree=column(_EXTREME),
        outcome=column(_EXTREME) if draw(st.booleans()) else None,
        block=block,
    )
    return sample, names


@settings(max_examples=150, deadline=None)
@given(_written_samples())
def test_read_sample_matches_row_parser(case):
    sample, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        fileio.write_sample(sample, path, block_names=names)
        assert _outcome(fileio.read_sample, path) == _outcome(_read_by_rows, path)
        with open(path, newline="") as fh:
            body = fh.read().split("\n", 1)[1]
    try:
        fast = fileio._sample_columns(body)
    except ValueError:
        # only block names can hold what the row parser must read
        assert names is not None
        return
    rows = fileio._sample_rows(path, csv.reader(io.StringIO(body, newline="")))
    assert [None if c is None else np.asarray(c).tolist() for c in fast] == [
        None if c is None else np.asarray(c).tolist() for c in rows
    ]


@pytest.mark.parametrize("y", ["1", ""])
def test_sample_columns_parses_a_well_formed_body_once(y):
    body = "".join(f"{i},{i - 1},{i},{y},2,b\n" for i in range(4))
    with mock.patch.object(fileio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        parent, _, outcome, _, labels = fileio._sample_columns(body)
    # a y column blank on every row is parsed again with y as text
    assert loadtxt.call_count == (1 if y else 2)
    assert parent.tolist() == [-1, 0, 1, 2] and labels.tolist() == ["b"] * 4
    assert (outcome is None) == (not y)


def test_sample_columns_refuses_an_empty_body_before_loadtxt():
    with mock.patch.object(fileio.np, "loadtxt", side_effect=AssertionError):
        with pytest.raises(ValueError, match="no rows"):
            fileio._sample_columns("")


def test_report_json_golden_format():
    rep = r.EstimateReport(estimator="mean", mu_hat=0.7, n=5)
    text = fileio.report_to_json(rep)
    assert '"mu_hat": 0.69999999999999996' in text
    assert text.endswith("}\n")
    assert float(text.split('"mu_hat": ')[1].split(",")[0]) == 0.7


@pytest.mark.parametrize(("field", "value"), [
    ("mu_hat", np.nan), ("eigenvalues", (0.5, -np.inf)), ("nugget", np.inf), ("rse", np.nan),
])
def test_report_json_refuses_non_finite_numbers(tmp_path, field, value):
    rep = r.EstimateReport(**{"estimator": "sbm", "mu_hat": 0.7, "n": 5, field: value})
    with pytest.raises(r.InvalidParametersError, match=f"^report field '{field}': "):
        fileio.report_to_json(rep)
    out = tmp_path / "report.json"
    with pytest.raises(r.InvalidParametersError):
        fileio.write_report(rep, out)
    assert not out.exists()


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


@pytest.mark.parametrize("nodes", [200, 5000])
@pytest.mark.parametrize("theta", ["gamma", "uniform"])
@pytest.mark.parametrize("block_matrix", ["table1", "5 6 3; 6 46 4.5; 3 4.5 28"])
def test_config_table1_network_is_table1_dcsbm(tmp_path, nodes, theta, block_matrix):
    # the parsed matrix is the symmetrized table, so both spellings scale alike
    path = tmp_path / "cfg.ini"
    path.write_text(
        f"[network]\nsource = dcsbm\nnodes = {nodes}\nexpected_degree = 30\n"
        f"block_matrix = {block_matrix}\ntheta = {theta}\n"
        "[outcomes]\na = bernoulli:0.5\n[run]\nsizes = 20\nreplicates = 1\nseed = 7\n"
    )
    got = fileio.load_experiment_config(path).dcsbm
    want = table1_dcsbm(nodes, 30.0, rng_seed=7, heterogeneous=(theta == "gamma"))
    for name in ("z", "theta", "B"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    # the overridden keys still count as read, so they are no unknown keys
    path.write_text(path.read_text() + "jobs = 3\n")
    cfg = fileio.load_experiment_config(path, seed_override=99, jobs_override=2)
    assert (cfg.base_seed, cfg.jobs) == (99, 2)
