"""Pin of every estimate path on the golden sample and ten small samples.

For each sample, ``data/estimate_pin.json`` holds, recorded before the
command line and the estimator table shared one reweight-then-estimate
pipeline:

- for each of the 15 ``rdsgls estimate`` flag pairs: the exit code, the
  standard error and the SHA-256 of the report file;
- for each named recipe, with and without the RSE: the SHA-256 of the
  ``apply_estimator`` report's ``repr`` and weight bytes, and the same of
  the three ``run_recipe`` reports on three outcome columns, or the type
  and message of what either call raised.

The small samples carry at most one fault each: a sample with two faults
may name either of them.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import rdsgls as r
from rdsgls import fileio
from rdsgls.cli import dispatch

DATA = Path(__file__).parent / "data"
PIN = DATA / "estimate_pin.json"
HEADER = "node,parent,pop_node,y,degree,block\n"
FLAG_PAIRS = [
    (estimator, reweight)
    for estimator in ("mean", "vh", "auto", "delta", "sbm")
    for reweight in ("none", "vh", "fgls")
]


def _csv(parent, y, degree, block) -> str:
    rows = (
        f"{i},{p},{i},{'' if v is None else repr(float(v))},{d!r},{b}\n"
        for i, (p, v, d, b) in enumerate(zip(parent, y, degree, block))
    )
    return HEADER + "".join(rows)


def _binary(n=15, y=None, degree=None, block=None) -> str:
    """A binary tree with mixed outcomes, degrees 1-4 and three blocks."""
    i = np.arange(n)
    return _csv(
        np.r_[-1, (i[1:] - 1) // 2],
        [float(v) for v in (i * 7 % 5) / 4] if y is None else y,
        [float(d) for d in 1 + i % 4] if degree is None else degree,
        ["abc"[v] for v in i % 3] if block is None else block,
    )


SAMPLES = {
    "golden": (DATA / "golden_sample.csv").read_text(),
    "binary": _binary(),
    "one_node": _csv([-1], [1.0], [2.0], ["a"]),
    "two_nodes": _csv([-1, 0], [1.0, 0.0], [2.0, 3.0], ["a", "b"]),
    "constant_y": _binary(y=[1.5] * 15),
    "no_y": _binary(y=[None] * 15),
    "zero_degree": _binary(degree=[0.0 if i == 6 else 1.0 + i % 4 for i in range(15)]),
    "no_blocks": _binary(block=[""] * 15),
    "one_block": _binary(block=["a"] * 15),
    "many_values": _binary(n=40, y=[0.37 * v for v in range(40)]),
    "star": _csv([-1] + [0] * 6, [1.0, 0.0, 1.0, 1.0, 0.0, 2.0, 1.0],
                 [6.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0], list("abacbca")),
}


def _columns(n: int) -> list:
    i = np.arange(n)
    return [i % 2 * 1.0, i % 3 * 0.5, (i % 5) ** 2 * 0.25]


def _digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(repr(report).encode())
        h.update(report.weights.tobytes())
    return h.hexdigest()


def _outcome(call) -> str:
    """The digest of a report list, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            reports = call()
    except Exception as exc:  # recorded and compared, never hidden
        return f"{type(exc).__name__}: {exc}"
    return _digest(reports)


def record_recipes(path) -> dict:
    sample = fileio.read_sample(path)
    columns = _columns(sample.n)
    out = {}
    for name in r.ESTIMATORS:
        for rse in (True, False):
            out[f"{name}/rse={rse}"] = _outcome(lambda: [r.apply_estimator(name, sample, rse=rse)])
            out[f"{name}/rse={rse}/columns"] = _outcome(
                lambda: r.run_recipe(r.ESTIMATORS[name], sample, columns, rse=rse)
            )
    return out


def record_estimate(path, tmp_path, capsys, estimator, reweight) -> dict:
    out = tmp_path / f"{estimator}-{reweight}.json"
    with np.errstate(all="ignore"):
        code = dispatch(["estimate", "--sample", str(path), "--estimator", estimator,
                         "--reweight", reweight, "--out", str(out)])
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"code": code, "stderr": capsys.readouterr().err, "sha256": sha}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.fixture
def sample_path(tmp_path, request):
    path = tmp_path / f"{request.param}.csv"
    path.write_text(SAMPLES[request.param])
    return path


def test_pin_covers_every_sample(pinned):
    assert sorted(pinned) == sorted(SAMPLES)


@pytest.mark.parametrize("sample_path", sorted(SAMPLES), indirect=True)
def test_estimate_flag_pairs(pinned, sample_path, tmp_path, capsys):
    want = pinned[sample_path.stem]["estimate"]
    for estimator, reweight in FLAG_PAIRS:
        got = record_estimate(sample_path, tmp_path, capsys, estimator, reweight)
        assert got == want[f"{estimator}/{reweight}"], (estimator, reweight)


@pytest.mark.parametrize("sample_path", sorted(SAMPLES), indirect=True)
def test_recipes(pinned, sample_path):
    assert record_recipes(sample_path) == pinned[sample_path.stem]["recipes"]
