"""File formats: edge lists, attribute and sample CSVs, reports, configs.

Numeric formatting is pinned for reproducible artifacts: CSV floats carry
10 significant digits, JSON floats 17.
"""

from __future__ import annotations

import configparser
import csv
import io
from pathlib import Path

import numpy as np

from . import presets
from .errors import InvalidParametersError, ParseError
from .estimators import EstimateReport
from .experiment import DiagnosticDataset, ExperimentConfig, OutcomeSpec, RmseTable
from .netmodel import DcSbmParams, WeightedGraph
from .presets import OFFSPRING_PRESETS, table1_block_proportions, table1_symmetrized
from .referral import ReferralTree, probability_vector
from .sampler import RdsSample, WalkConfig
from .seeding import STREAM_NETWORK, as_rng

CSV_FLOAT = "%.10g"
JSON_FLOAT = "%.17g"


def fmt_csv(x) -> str:
    if isinstance(x, (float, np.floating)):
        return CSV_FLOAT % float(x)
    return str(x)


# ---------------------------------------------------------------- edge lists


def write_edge_list(graph: WeightedGraph, path):
    with open(path, "w") as fh:
        fh.write("# edge list: u v [weight]\n")
        for i, j, w in graph.edge_list():
            if w == 1.0:
                fh.write(f"{i} {j}\n")
            else:
                fh.write(f"{i} {j} {CSV_FLOAT % w}\n")


def read_edge_list(path, allow_isolated: bool = False):
    """Parse whitespace-separated 'u v [w]' lines into a graph."""
    edges = []
    max_id = -1
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(path, lineno, f"expected 'u v [w]', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
            if i < 0 or j < 0:
                raise ParseError(path, lineno, "node ids must be nonnegative")
            if not 0 < w < np.inf:
                raise ParseError(path, lineno, "edge weight must be positive and finite")
            edges.append((i, j, w))
            max_id = max(max_id, i, j)
    try:
        return WeightedGraph.from_edges(max_id + 1, edges, allow_isolated=allow_isolated)
    except InvalidParametersError as exc:
        raise ParseError(path, 0, str(exc)) from None


# ------------------------------------------------------------ attribute CSV


def write_attributes(path, blocks=None, block_names=None, outcomes=None):
    """Node attribute table: node, optional block, numeric outcome columns."""
    outcomes = outcomes or {}
    n = None
    for col in outcomes.values():
        n = len(col)
    if blocks is not None:
        n = len(blocks)
    if n is None:
        raise InvalidParametersError("nothing to write")
    header = ["node"]
    if blocks is not None:
        header.append("block")
    header.extend(outcomes.keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [i]
            if blocks is not None:
                b = blocks[i]
                row.append(block_names[b] if block_names is not None else b)
            row.extend(fmt_csv(col[i]) for col in outcomes.values())
            writer.writerow(row)


def read_attributes(path):
    """Returns (blocks or None, block_names or None, {column: float array})."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "empty attribute file") from None
        if "node" not in header:
            raise ParseError(path, 1, "attribute file needs a 'node' column")
        rows = list(reader)
    idx = {name: k for k, name in enumerate(header)}
    n = len(rows)
    order = np.empty(n, dtype=np.int64)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(path, lineno, "row width disagrees with header")
        try:
            order[lineno - 2] = int(row[idx["node"]])
        except ValueError:
            raise ParseError(path, lineno, "node id must be an integer") from None
    if sorted(order.tolist()) != list(range(n)):
        raise ParseError(path, 0, "node column must enumerate 0..n-1")
    pos = np.argsort(order)

    blocks = None
    block_names = None
    if "block" in idx:
        raw = [rows[int(p)][idx["block"]] for p in pos]
        block_names = sorted(set(raw))
        lookup = {name: k for k, name in enumerate(block_names)}
        blocks = np.array([lookup[v] for v in raw], dtype=np.int64)
    outcomes = {}
    for name, k in idx.items():
        if name in ("node", "block"):
            continue
        col = np.empty(n)
        for lineno, p in enumerate(pos):
            try:
                col[lineno] = float(rows[int(p)][k])
            except ValueError:
                raise ParseError(
                    path, int(p) + 2, f"column {name!r} must be numeric"
                ) from None
        finite = np.isfinite(col)
        if not finite.all():
            first = int(pos[np.argmin(finite)])
            raise ParseError(path, first + 2, f"column {name!r} must be finite")
        outcomes[name] = col
    return blocks, block_names, outcomes


# ---------------------------------------------------------------- sample CSV

SAMPLE_HEADER = ["node", "parent", "pop_node", "y", "degree", "block"]


def write_sample(sample: RdsSample, path, block_names=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SAMPLE_HEADER)
        for tau in range(sample.n):
            if sample.block is None:
                block = ""
            elif block_names is not None:
                block = block_names[sample.block[tau]]
            else:
                block = int(sample.block[tau])
            writer.writerow(
                [
                    tau,
                    int(sample.tree.parent[tau]),
                    int(sample.node[tau]),
                    "" if sample.outcome is None else fmt_csv(sample.outcome[tau]),
                    fmt_csv(sample.degree[tau]),
                    block,
                ]
            )


def read_sample(path) -> RdsSample:
    """Read a sample CSV as written by ``write_sample``.

    The body is parsed column by column in numpy's C tokenizer. Anything
    that tokenizer would not read exactly as ``csv``, ``int`` and ``float``
    do goes to the row-by-row parser, which returns the same columns or
    raises the ``ParseError`` naming the file and line; so does every body
    on a numpy whose tokenizer reads ``9.0`` as an integer.  No warnings
    filter is touched.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    lines = io.StringIO(text, newline="")
    rows = csv.reader(lines)
    if next(rows, None) != SAMPLE_HEADER:
        raise ParseError(path, 1, f"sample file must start with {','.join(SAMPLE_HEADER)}")
    try:
        columns = _sample_columns(text[lines.tell():])
    except ValueError:
        columns = _sample_rows(path, rows)
    return _sample_from_columns(path, *columns)


_SAMPLE_NUMBERS = [
    ("node", "i8"), ("parent", "i8"), ("pop_node", "i8"), ("y", "f8"), ("degree", "f8")
]
_INT64 = np.iinfo(np.int64)


def _loadtxt_rejects_float_ints() -> bool:
    """Whether ``np.loadtxt`` refuses ``9.0`` in an int64 column, as numpy 2 does.

    NumPy 1.24-1.26 only warn (an error under ``-W error``) and read 9.
    """
    try:
        np.loadtxt(["9.0"], dtype=np.int64)
    except (ValueError, Warning) as exc:
        return isinstance(exc, ValueError)
    return False


# decided once: a numpy that reads 9.0 as 9 sends every body to the row parser
_LOADTXT_EXACT = _loadtxt_rejects_float_ints()


def _sample_columns(body):
    """``(parent, pop_node, y or None, degree, block labels)`` read by ``np.loadtxt``.

    Raises ``ValueError`` on any body the row parser might read
    differently: every body when ``_LOADTXT_EXACT`` is false, an empty
    body, quotes, bare carriage returns, the separators \\x1c-\\x1f
    (whitespace to numpy's number parser, not to ``int``/``float``), blank
    lines, rows that are not six fields wide, nodes out of order, and
    numbers ``np.loadtxt`` rejects.
    """
    if not _LOADTXT_EXACT:
        raise ValueError("np.loadtxt reads 9.0 as an integer here")
    body = body.replace("\r\n", "\n")
    if any(c in body for c in '"\r\x1c\x1d\x1e\x1f'):
        raise ValueError("needs the csv module")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    # usecols ignores extra fields, so the comma count pins every row at six
    if not lines or "" in lines or body.count(",") != 5 * len(lines):
        raise ValueError("no rows, a blank line or a row not six fields wide")

    def load(usecols, dtype):
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          quotechar=None, usecols=usecols, ndmin=1)

    try:
        numbers = load((0, 1, 2, 3, 4), _SAMPLE_NUMBERS)
        y = np.ascontiguousarray(numbers["y"])
    except ValueError:  # an outcome column left blank on every row
        numbers = load((0, 1, 2, 4), [f for f in _SAMPLE_NUMBERS if f[0] != "y"])
        if (load(3, object) != "").any():
            raise
        y = None
    labels = load(5, object)
    n = len(lines)
    if labels.shape[0] != n or not np.array_equal(numbers["node"], np.arange(n)):
        raise ValueError("nodes out of order")
    parent, pop_node, degree = (
        np.ascontiguousarray(numbers[name]) for name in ("parent", "pop_node", "degree")
    )
    return parent, pop_node, y, degree, labels


def _sample_rows(path, rows):
    """The same columns as ``_sample_columns``, parsed by ``csv`` row by row.

    Raises the ``ParseError`` of the first malformed row. A partly blank
    ``y`` column comes back masked where blank.
    """
    parents, pops, ys, degs, blocks, blank = [], [], [], [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 6:
            raise ParseError(path, lineno, "expected 6 columns")
        try:
            node = int(row[0])
            if node != len(parents):
                raise ParseError(path, lineno, "nodes must appear in order")
            parent, pop = int(row[1]), int(row[2])
            if not _INT64.min <= min(parent, pop) <= max(parent, pop) <= _INT64.max:
                raise ParseError(path, lineno, "integer outside the 64-bit range")
            parents.append(parent)
            pops.append(pop)
            ys.append(float(row[3]) if row[3] else np.nan)
            blank.append(not row[3])
            degs.append(float(row[4]))
            blocks.append(row[5])
        except ValueError:
            raise ParseError(path, lineno, "malformed numeric field") from None
    if not any(blank):
        y = np.asarray(ys)
    elif all(blank):
        y = None
    else:
        y = np.ma.masked_array(ys, mask=blank)
    return parents, pops, y, np.asarray(degs), np.array(blocks, dtype=object)


def _sample_from_columns(path, parent, pop_node, y, degree, labels) -> RdsSample:
    """Validate parsed sample columns; every error names the file and line."""
    parent = np.asarray(parent, dtype=np.int64)
    try:
        tree = ReferralTree(parent)
    except InvalidParametersError as exc:
        ok = (parent >= 0) & (parent < np.arange(parent.shape[0]))
        ok[:1] = parent[:1] == -1
        first = int(np.argmin(ok)) if ok.size else 0
        raise ParseError(path, 2 + first, str(exc)) from None
    if np.ma.is_masked(y):
        first = int(np.argmax(np.ma.getmaskarray(y)))
        raise ParseError(path, 2 + first, "y is blank here but given on other rows")
    for name, values in (("y", y), ("degree", degree)):
        if values is not None and not np.isfinite(values).all():
            first = int(np.argmin(np.isfinite(values)))
            raise ParseError(path, 2 + first, f"{name} must be finite")
    block = None
    if (labels != "").any():
        names = np.array(sorted(set(labels.tolist())), dtype=object)
        block = np.searchsorted(names, labels)
    return RdsSample(tree=tree, node=pop_node, degree=degree, outcome=y, block=block)


# -------------------------------------------------------------------- JSON


def _json_value(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return JSON_FLOAT % float(x)
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in x) + "]"
    raise InvalidParametersError(f"cannot serialize {type(x)!r}")


def report_to_json(report: EstimateReport) -> str:
    lines = ["{"]
    items = list(report.to_dict().items())
    for k, (key, value) in enumerate(items):
        comma = "," if k < len(items) - 1 else ""
        lines.append(f'  "{key}": {_json_value(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_report(report: EstimateReport, path):
    with open(path, "w") as fh:
        fh.write(report_to_json(report))


# ------------------------------------------------------------- result CSVs


def write_rmse_table(table: RmseTable, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["estimator", "n", "outcome", "rmse", "bias", "sd", "replicates", "failures"]
        )
        for row in table.to_csv_rows():
            writer.writerow([fmt_csv(v) for v in row])


def write_diagnostics(dataset: DiagnosticDataset, path):
    """Diagnostic points, then the grey curve; ``emit_diagnostics`` gives ``as_printed`` RSEs."""
    variant = "as_printed"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "lambda_hat", "rse", "variant"])
        for pt in dataset.points:
            writer.writerow([pt.estimator, fmt_csv(pt.lambda_hat), fmt_csv(pt.rse), variant])
        for lam, val in zip(dataset.grey_grid, dataset.grey_rse):
            writer.writerow(["ranktwo_curve", fmt_csv(lam), fmt_csv(val), variant])


def write_figure1(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "levels", "n", "var_gls", "var_mean", "ratio"])
        for r in rows:
            writer.writerow(
                [fmt_csv(r["p"]), r["levels"], r["n"], fmt_csv(r["var_gls"]),
                 fmt_csv(r["var_mean"]), fmt_csv(r["ratio"])]
            )


# ------------------------------------------------------------------ configs


def _parse_pmf(text: str) -> tuple:
    if text in OFFSPRING_PRESETS:
        return tuple(OFFSPRING_PRESETS[text])
    try:
        values = tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise InvalidParametersError(f"bad offspring pmf {text!r}") from None
    return values


def _parse_outcome(name: str, text: str) -> OutcomeSpec:
    kind, _, args = text.partition(":")
    kind = kind.strip()
    try:
        if kind == "column":
            values = (args.strip(),)
        else:
            values = tuple(float(v) for v in args.replace(",", " ").split())
        return OutcomeSpec(kind=kind, values=values)
    except ValueError as exc:
        raise InvalidParametersError(f"outcome {name!r} = {text!r}: {exc}") from None


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


def _setting(parser, section: str, key: str, default, convert):
    """``convert`` of ``[section] key``, or of ``default`` where it is unset.

    A value ``convert`` cannot read raises ``InvalidParametersError``
    naming the section and key.
    """
    value = parser.get(section, key, fallback=default)
    try:
        return convert(value)
    except ValueError as exc:
        raise InvalidParametersError(f"[{section}] {key} = {value!r}: {exc}") from None


def load_experiment_config(path, seed_override=None, jobs_override=None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from the sectioned text format.

    Sections: [network] (dcsbm parameters or edge-list paths), [outcomes]
    (name = kind:args), [walk], [estimators], [run].  Paths are resolved
    relative to the config file.  A number that does not parse is an
    ``InvalidParametersError`` naming its ``[section] key``.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ParseError(path, 0, "config file not found or unreadable")
    base = Path(path).parent

    seed = (int(seed_override) if seed_override is not None
            else _setting(parser, "run", "seed", 20170, int))
    sizes = _setting(parser, "run", "sizes", "100", lambda t: tuple(int(v) for v in t.split()))
    replicates = _setting(parser, "run", "replicates", 100, int)
    jobs = (int(jobs_override) if jobs_override is not None
            else _setting(parser, "run", "jobs", 1, int))

    walk_sec = parser["walk"] if parser.has_section("walk") else {}
    preferential = _setting(parser, "walk", "preferential_weight", 1.0, float)
    walk = WalkConfig(
        offspring_pmf=_parse_pmf(str(walk_sec.get("offspring", "survey"))),
        # at least 1, so that ExperimentConfig names empty or bad sizes itself
        target_n=max((1, *sizes)),
        seed_rule=str(walk_sec.get("seed_rule", "degree_proportional")),
        max_restarts=_setting(parser, "walk", "max_restarts", 1000, int),
    )

    net = parser["network"] if parser.has_section("network") else {}
    source = str(net.get("source", "dcsbm"))
    dcsbm = None
    graph = None
    graph_blocks = None
    graph_outcomes = {}
    if source == "dcsbm":
        nodes = _setting(parser, "network", "nodes", 5000, int)
        degree = _setting(parser, "network", "expected_degree", 30.0, float)
        S = _setting(parser, "network", "block_matrix", "table1",
                     lambda t: table1_symmetrized() if t == "table1" else _parse_matrix(t))
        theta_kind = str(net.get("theta", "gamma"))
        S = presets.scaled_block_matrix(S, nodes, degree)
        p = _setting(
            parser, "network", "proportions", "table1",
            lambda t: table1_block_proportions() if t == "table1"
            else np.array([float(v) for v in t.split()]),
        )
        if p.shape != (S.shape[0],):
            raise InvalidParametersError(
                f"proportions gives {p.size} values for the {S.shape[0]} blocks of block_matrix"
            )
        p = probability_vector(p, "proportions")
        sizes_z = presets.block_sizes(p, nodes)
        z = np.repeat(np.arange(len(sizes_z)), sizes_z)
        theta = (
            presets.gamma_theta(z, as_rng(seed, STREAM_NETWORK))
            if theta_kind == "gamma"
            else presets.uniform_theta(z)
        )
        dcsbm = DcSbmParams(z=z, theta=theta, B=S)
    elif source == "edgelist":
        graph = read_edge_list(base / net.get("edges"), allow_isolated=True)
        attrs = net.get("attributes")
        if attrs:
            graph_blocks, _, graph_outcomes = read_attributes(base / attrs)
    else:
        raise InvalidParametersError(f"unknown network source {source!r}")

    outcomes = {}
    if parser.has_section("outcomes"):
        for name, text in parser["outcomes"].items():
            outcomes[name] = _parse_outcome(name, text)
    if not outcomes:
        raise InvalidParametersError("config defines no outcomes")

    est_sec = parser["estimators"] if parser.has_section("estimators") else {}
    estimators = tuple(str(est_sec.get("names", "mean vh")).split())

    return ExperimentConfig(
        outcomes=outcomes,
        walk=walk,
        estimators=estimators,
        sizes=sizes,
        replicates=replicates,
        base_seed=seed,
        dcsbm=dcsbm,
        graph=graph,
        graph_blocks=graph_blocks,
        graph_outcomes=graph_outcomes,
        preferential_weight=preferential,
        jobs=jobs,
    )
