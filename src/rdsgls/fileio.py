"""File formats: edge lists, attribute and sample CSVs, reports, configs.

Numeric formatting is pinned for reproducible artifacts: CSV floats carry
10 significant digits, JSON floats 17.  Every CSV table is written by
``_write_csv``, column by column.  A sample CSV is read by
one ``np.loadtxt`` call, or row by row by ``csv`` where that call might
read it differently.
"""

from __future__ import annotations

import configparser
import csv
import difflib
import io
from pathlib import Path

import numpy as np

from .errors import InvalidParametersError, ParseError
from .estimators import EstimateReport
from .experiment import DiagnosticDataset, ExperimentConfig, OutcomeSpec, RmseTable
from .netmodel import WeightedGraph
from .presets import OFFSPRING_PRESETS, dcsbm_params, table1_block_proportions, table1_symmetrized
from .referral import ReferralTree, probability_vector
from .sampler import SEED_RULES, RdsSample, WalkConfig
from .seeding import DEFAULT_SEED

CSV_FLOAT = "%.10g"
JSON_FLOAT = "%.17g"


def _write_csv(path, header, columns):
    """Write ``header``, then one row per entry of the equal-length ``columns``.

    Each column of floats is formatted once, with ``CSV_FLOAT``; ``csv``
    writes every other cell as ``str`` gives it.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        floats = values.dtype.kind == "f"
        cells.append([CSV_FLOAT % v for v in values.tolist()] if floats else values.tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


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
    """Parse whitespace-separated 'u v [w]' lines into a graph; a repeated pair fails."""
    edges, first = [], {}
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
            at = first.setdefault((min(i, j), max(i, j)), lineno)
            if at != lineno:
                raise ParseError(path, lineno, f"duplicate edge ({i},{j}); first on line {at}")
            edges.append((i, j, w))
            max_id = max(max_id, i, j)
    return WeightedGraph.from_edges(max_id + 1, edges, allow_isolated=allow_isolated)


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
    header, columns = ["node"], [range(n)]
    if blocks is not None:
        header.append("block")
        columns.append(blocks if block_names is None else [block_names[b] for b in blocks])
    header.extend(outcomes)
    columns.extend(outcomes.values())
    _write_csv(path, header, columns)


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
    blank = [""] * sample.n
    if sample.block is None:
        blocks = blank
    elif block_names is not None:
        blocks = [block_names[b] for b in sample.block]
    else:
        blocks = sample.block.tolist()
    y = blank if sample.outcome is None else sample.outcome
    columns = (range(sample.n), sample.tree.parent, sample.node, y, sample.degree, blocks)
    _write_csv(path, SAMPLE_HEADER, columns)


def read_sample(path) -> RdsSample:
    """Read a sample CSV as written by ``write_sample``.

    The body is parsed in one pass of numpy's C tokenizer. Anything that
    tokenizer would not read exactly as ``csv``, ``int`` and ``float`` do
    goes to the row-by-row parser, which returns the same columns or
    raises the ``ParseError`` naming the file and line.  No warnings
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


_SAMPLE_DTYPE = [("node", "i8"), ("parent", "i8"), ("pop_node", "i8"), ("y", "f8"),
                 ("degree", "f8"), ("block", object)]
# the same table with y read as text, to tell a blank outcome column from a bad one
_BLANK_Y_DTYPE = [(name, object if name == "y" else kind) for name, kind in _SAMPLE_DTYPE]
_INT64 = np.iinfo(np.int64)


def _sample_columns(body):
    """``(parent, pop_node, y or None, degree, block labels)`` read by one ``np.loadtxt``.

    Raises ``ValueError`` on any body the row parser might read
    differently: an empty body, quotes, bare carriage returns, the
    separators \\x1c-\\x1f (whitespace to numpy's number parser, not to
    ``int``/``float``), blank lines, rows that are not six fields wide,
    nodes out of order, and numbers ``np.loadtxt`` rejects.  A ``y``
    column blank on every row costs a second parse, with ``y`` as text.
    """
    body = body.replace("\r\n", "\n")
    if any(c in body for c in '"\r\x1c\x1d\x1e\x1f'):
        raise ValueError("needs the csv module")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or "" in lines or body.count(",") != 5 * len(lines):
        raise ValueError("no rows, a blank line or a row not six fields wide")

    def load(dtype):
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          quotechar=None, ndmin=1)

    try:
        table = load(_SAMPLE_DTYPE)
        y = np.ascontiguousarray(table["y"])
    except ValueError:  # an outcome column left blank on every row
        table = load(_BLANK_Y_DTYPE)
        if (table["y"] != "").any():
            raise
        y = None
    if not np.array_equal(table["node"], np.arange(len(lines))):
        raise ValueError("nodes out of order")
    parent, pop_node, degree, labels = (
        np.ascontiguousarray(table[name]) for name in ("parent", "pop_node", "degree", "block")
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
        if not np.isfinite(x):
            raise InvalidParametersError(f"{float(x)} is not a JSON number")
        return JSON_FLOAT % float(x)
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in x) + "]"
    raise InvalidParametersError(f"cannot serialize {type(x)!r}")


def report_to_json(report: EstimateReport) -> str:
    """The report as JSON text; a field holding a non-finite number raises,
    naming the field, because JSON has no such number."""
    lines = ["{"]
    items = list(report.to_dict().items())
    for k, (key, value) in enumerate(items):
        comma = "," if k < len(items) - 1 else ""
        try:
            lines.append(f'  "{key}": {_json_value(value)}{comma}')
        except InvalidParametersError as exc:
            raise InvalidParametersError(f"report field {key!r}: {exc}") from None
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_report(report: EstimateReport, path):
    """Write ``report_to_json``; a report it refuses leaves no file."""
    text = report_to_json(report)
    with open(path, "w") as fh:
        fh.write(text)


# ------------------------------------------------------------- result CSVs


def write_rmse_table(table: RmseTable, path):
    header = ["estimator", "n", "outcome", "rmse", "bias", "sd", "replicates", "failures"]
    _write_csv(path, header, zip(*table.to_csv_rows()))


def write_diagnostics(dataset: DiagnosticDataset, path):
    """Diagnostic points, then the grey curve; ``emit_diagnostics`` gives ``as_printed`` RSEs."""
    variant = "as_printed"
    points = [(pt.estimator, pt.lambda_hat, pt.rse, variant) for pt in dataset.points]
    curve = [("ranktwo_curve", lam, val, variant)
             for lam, val in zip(dataset.grey_grid, dataset.grey_rse)]
    _write_csv(path, ["estimator", "lambda_hat", "rse", "variant"], zip(*points, *curve))


def write_figure1(rows, path):
    header = ["p", "levels", "n", "var_gls", "var_mean", "ratio"]
    _write_csv(path, header, ([row[k] for row in rows] for k in header))


# ------------------------------------------------------------------ configs


def parse_pmf(text: str) -> tuple:
    """An offspring pmf: a preset name of ``OFFSPRING_PRESETS`` or a list of probabilities."""
    if text in OFFSPRING_PRESETS:
        return tuple(OFFSPRING_PRESETS[text])
    try:
        values = tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise InvalidParametersError(f"bad offspring pmf {text!r}") from None
    return values


def parse_seed_rule(text: str):
    """A seed rule: an integer such as ``12`` is a node id, other text a name in ``SEED_RULES``."""
    if text.removeprefix("-").isdecimal():
        return int(text)
    if text not in SEED_RULES:
        raise InvalidParametersError(f"unknown seed rule {text!r}")
    return text


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


def _theta_kind(text: str) -> str:
    if text not in ("gamma", "uniform"):
        raise ValueError("must be gamma or uniform")
    return text


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


# the [network] keys each source reads, so that a key of another source is named as such
_SOURCE_KEYS = {
    "dcsbm": ("nodes", "expected_degree", "block_matrix", "theta", "proportions"),
    "edgelist": ("edges", "attributes"),
}


class _ConfigReader(configparser.ConfigParser):
    """The config parser, remembering each ``(section, key)`` a value is asked of.

    Keys keep their case: ``Seed`` is no ``seed``, and outcomes ``Aligned``
    and ``aligned`` are two outcomes.
    """

    def __init__(self):
        # values are read literally: a '%' is part of its value, not interpolation;
        # no header names the default section "", so [DEFAULT] is read as a section
        super().__init__(interpolation=None, default_section="")
        self.optionxform = str
        self.asked = set()

    def get(self, section, option, **kwargs):
        self.asked.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)

    def line(self, path, section: str, key=None) -> int:
        """The line of the first ``[section]`` header, or of its ``key``, as read finds it."""
        current = None
        with open(path) as handle:
            for lineno, text in enumerate(handle, start=1):
                header = self.SECTCRE.match(text.strip())
                if header:
                    current = header.group("header")
                    if key is None and current == section:
                        return lineno
                elif key is not None and current == section:
                    option = self.OPTCRE.match(text.strip())
                    if option and self.optionxform(option.group("option").rstrip()) == key:
                        return lineno

    def reject_unread(self, path, notes):
        """A ``ParseError`` at the first section or key of the file that no value was
        asked of.  An unread key with an entry in ``notes``, keyed by
        ``(section, key)``, gets that note; else the message names the closest
        section or key asked of, where ``difflib`` finds one."""
        for section in self.sections():
            keys = {key for name, key in self.asked if name == section}
            if not keys:
                raise ParseError(path, self.line(path, section), f"unknown section [{section}]"
                                 + _closest(f"[{section}]", {f"[{s}]" for s, _ in self.asked}))
            for key in self.options(section):
                if key not in keys:
                    note = notes.get((section, key))
                    raise ParseError(path, self.line(path, section, key),
                                     f"unknown key [{section}] {key}"
                                     + (f"; {note}" if note else _closest(key, keys)))


def _closest(name: str, valid) -> str:
    close = difflib.get_close_matches(name, sorted(valid), n=1)
    return f"; did you mean {close[0]}?" if close else ""


def _setting(parser, section: str, key: str, default, convert):
    """``convert`` of ``[section] key``, or of ``default`` where it is unset.

    A value ``convert`` cannot read, or an unset key whose ``default`` is
    None, raises ``InvalidParametersError`` naming the section and key.
    """
    value = parser.get(section, key, fallback=default)
    try:
        if value is None:
            raise ValueError("must be set")
        return convert(value)
    except ValueError as exc:
        raise InvalidParametersError(f"[{section}] {key} = {value!r}: {exc}") from None


def load_experiment_config(path, seed_override=None, jobs_override=None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from the sectioned text format.

    Sections: [network] (dcsbm parameters or edge-list paths), [outcomes]
    (name = kind:args), [walk], [estimators], [run].  Paths are resolved
    relative to the config file.  Every key is read through ``_setting``:
    a value that does not parse, or a missing ``[network] edges`` of an
    edge-list network, is an ``InvalidParametersError`` naming its
    ``[section] key``; an ``[outcomes]`` line names its outcome.  A
    repeated section or key, a key before the first section header or a
    line that is not ``key = value`` is a ``ParseError`` naming its line, and
    so is a ``[DEFAULT]`` section, whose keys configparser would give every
    section.  Once every value is read, so is a section or key that no
    value was read from, before a config with no outcomes is refused: a
    misspelt ``[outcomes]`` is named as an unknown section, and a
    ``[network]`` key of the other source is named with the source it
    applies to.  Keys keep their case.
    """
    parser = _ConfigReader()
    try:
        read = parser.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ParseError(path, exc.lineno, f"[{exc.section}] {exc.option} is set twice") from None
    except configparser.DuplicateSectionError as exc:
        raise ParseError(path, exc.lineno, f"section [{exc.section}] appears twice") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError(path, exc.lineno, "expected a [section] header first") from None
    except configparser.ParsingError as exc:
        raise ParseError(path, exc.errors[0][0], "expected 'key = value'") from None
    if not read:
        raise ParseError(path, 0, "config file not found or unreadable")
    if parser.has_section("DEFAULT"):
        raise ParseError(path, parser.line(path, "DEFAULT"),
                         "section [DEFAULT] is not allowed: set each key in its own section")
    base = Path(path).parent

    seed = (int(seed_override) if seed_override is not None
            else _setting(parser, "run", "seed", DEFAULT_SEED, int))
    sizes = _setting(parser, "run", "sizes", "100", lambda t: tuple(int(v) for v in t.split()))
    replicates = _setting(parser, "run", "replicates", 100, int)
    jobs = (int(jobs_override) if jobs_override is not None
            else _setting(parser, "run", "jobs", 1, int))
    parser.asked |= {("run", "seed"), ("run", "jobs")}  # a flag's override reads them too

    preferential = _setting(parser, "walk", "preferential_weight", 1.0, float)
    walk = WalkConfig(
        offspring_pmf=_setting(parser, "walk", "offspring", "survey", parse_pmf),
        # at least 1, so that ExperimentConfig names empty or bad sizes itself
        target_n=max((1, *sizes)),
        seed_rule=_setting(parser, "walk", "seed_rule", "degree_proportional", parse_seed_rule),
        max_restarts=_setting(parser, "walk", "max_restarts", 1000, int),
    )

    source = _setting(parser, "network", "source", "dcsbm", str)
    dcsbm = None
    graph = None
    graph_blocks = None
    graph_outcomes = {}
    if source == "dcsbm":
        nodes = _setting(parser, "network", "nodes", 5000, int)
        degree = _setting(parser, "network", "expected_degree", 30.0, float)
        S = _setting(parser, "network", "block_matrix", "table1",
                     lambda t: table1_symmetrized() if t == "table1" else _parse_matrix(t))
        theta = _setting(parser, "network", "theta", "gamma", _theta_kind)
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
        dcsbm = dcsbm_params(S, p, nodes, degree, seed, heterogeneous=theta == "gamma")
    elif source == "edgelist":
        edges = _setting(parser, "network", "edges", None, str)
        graph = read_edge_list(base / edges, allow_isolated=True)
        attrs = _setting(parser, "network", "attributes", "", str)
        if attrs:
            graph_blocks, _, graph_outcomes = read_attributes(base / attrs)
    else:
        raise InvalidParametersError(f"unknown network source {source!r}")

    outcomes = {}
    if parser.has_section("outcomes"):
        for name in parser.options("outcomes"):
            outcomes[name] = _parse_outcome(name, parser.get("outcomes", name))
    parser.asked.add(("outcomes", ""))  # asked for even when absent, so a misspelling is named

    estimators = _setting(parser, "estimators", "names", "mean vh", lambda t: tuple(t.split()))
    parser.reject_unread(path, {("network", key): f"{key} applies to source = {other}"
                                for other, keys in _SOURCE_KEYS.items() if other != source
                                for key in keys})
    if not outcomes:
        raise InvalidParametersError("config defines no outcomes")

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
