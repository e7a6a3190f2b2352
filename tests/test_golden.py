"""Byte-for-byte pins of every estimator output on one committed sample.

``data/golden_sample.csv`` is the n = 200 sample written by
``fileio.write_sample`` from ``table1_dcsbm(1000, 20, rng_seed=11)``: the
network drawn with seed 11, its largest component sampled with the
``fast`` offspring law, seed 11, outcome ``y = (z != 2)`` and the block
labels attached.  The digests were recorded before the estimator table
replaced the per-caller dispatch code.
"""

import hashlib
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rdsgls as r
from rdsgls import estimators, fileio
from rdsgls.cli import dispatch

SAMPLE = Path(__file__).parent / "data" / "golden_sample.csv"

REPORT_SHA256 = {
    ("mean", "none"): "b7726fe336ed4c2e728c3377cc0c1ae0d2a6471abc33cf37a54454c3af59115e",
    ("mean", "vh"): "f5978ae5df9a1ed99196567a83312c4b4674059b188b73db3abff441e9ae3625",
    ("mean", "fgls"): "2e1860da563944cff6782a7c0611837bd2c0a3d94afa34d5f806f60f6bc4cf61",
    ("vh", "none"): "ec4ca3fd25d734c2958ab8bd6702c7ec768b989a407c50c791884bbd16459f60",
    ("vh", "vh"): "3cd6424f0b2df2987f8303befbe4ae297b0b13f0cc8144be4e8f67a61d511cc7",
    ("vh", "fgls"): "c3970f950f414ac668ebdad95e924833c6ebf695442d585c93d1415f61d86ef0",
    ("auto", "none"): "4fa8c15f358ffe892dbf29700499d4da46e82ccdac376df6f776166221dc5a4d",
    ("auto", "vh"): "993d306eb0b048626cc0aacbfc6ce963b15a3047115c17e5a22a1783bfb631a4",
    ("auto", "fgls"): "17b5caa2b1f014b581dcf2cd9aa3d7e549552bad8744ac775338d0b7957f9a08",
    ("delta", "none"): "c65b09c291d69041333e4f056d6ee3048c8c5578ca08e74969c00c2cb427f749",
    ("delta", "vh"): "3946e02036931b558a5eade2306c924d8d71f9c9b5ab959bc8d8014033754746",
    ("delta", "fgls"): "be4a654baa498ba4d8cc0c7bd3d586d53082091dc4aa6ca80539a07e0a8e677e",
    ("sbm", "none"): "7645e59ccd90df6d97d91b64f5a42438a9fb261cecfdf606a7bfe327e7ea1ddd",
    ("sbm", "vh"): "c135813db1d8dbdfbd7db1fac2d9314ef79a500e86e75e2e70cf98e26082249d",
    ("sbm", "fgls"): "ce367b1758898117e46bc3168a54d20264c52f44fd13d1389c968f4966f66139",
}
DIAGNOSE_SHA256 = "b58bb1f8af25c3cbca5bcda2a28e11d9f15c1ffb6e3068ac5d44ad1cfaf32397"
# the README's figure1 command
FIGURE1_SHA256 = "80933d98f33730d7315115b549cec8585f64cb7c57eb4464d141c73f4176474c"
# an `rdsgls experiment` run with every estimator, two sizes and three outcomes
# on a 1,000-node Table-1 network: the CSV's digest, and the digest of the
# RMSE rows' repr, which keeps every bit of each float
EXPERIMENT_CONFIG = (
    "[network]\nsource = dcsbm\nnodes = 1000\nexpected_degree = 20\n"
    "[outcomes]\naligned = block_values:1,1,0\ncorrelated = block_bernoulli:0.7,0.1,0.9\n"
    "uncorrelated = bernoulli:0.66\n"
    "[estimators]\nnames = mean vh auto delta sbm_y sbm_z\n"
    "[walk]\noffspring = fast\n"
    "[run]\nsizes = 50 200\nreplicates = 8\nseed = 11\n"
)
RMSE_SHA256 = "6ce643d9423098cd5e7e6b4dde8f13589b6c95d81c0cb343ba1b0c15c8a7c8f4"
RMSE_ROWS_REPR_SHA256 = "423caa86735bea0ac080da12a03733351545e98bed3f157708f7d7b2aa904d65"
MU_HAT_REPR = {
    "mean": "0.67",
    "vh": "0.6574498807472086",
    "auto": "0.5058284367436426",
    "delta": "0.6376056068833169",
    "sbm_y": "0.549473405375681",
    "sbm_z": "0.541008136283597",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(("estimator", "reweight"), sorted(REPORT_SHA256))
def test_estimate_report_bytes(tmp_path, capsys, estimator, reweight):
    out = tmp_path / "report.json"
    code = dispatch(["estimate", "--sample", str(SAMPLE), "--estimator", estimator,
                     "--reweight", reweight, "--out", str(out)])
    assert code == 0
    assert _sha256(out) == REPORT_SHA256[(estimator, reweight)]
    assert capsys.readouterr().err == ""


def test_diagnose_csv_bytes(tmp_path, capsys):
    out = tmp_path / "diagnostics.csv"
    assert dispatch(["diagnose", "--sample", str(SAMPLE), "--out", str(out)]) == 0
    assert _sha256(out) == DIAGNOSE_SHA256
    assert capsys.readouterr().err == ""


# the standard-error lines of commands that report notes
RESTART_LINE = "warning: sampling restarted 13 times\n"
FALLBACK_LINE = (
    "warning: GLS estimate of the inverse-degree mean was not positive; "
    "using the harmonic mean instead\n"
)
SHALLOW_LINE = "warning: delta: lag-2 statistics need at least 3 nodes\n"
# a two-node sample: too shallow for the lag-2 statistics of delta
TWO_NODE_SAMPLE = "node,parent,pop_node,y,degree,block\n0,-1,0,1,2,0\n1,0,1,0,3,1\n"


def _inverse_degrees_not_positive():
    """Patch the blockmodel GLS so its inverse-degree estimate is -1.

    The ``fgls`` reweighting then falls back to the harmonic mean; every
    other call is unchanged.
    """
    real = estimators._blockmodel_gls

    def patched(sample, labels, rse):
        report = real(sample, labels, rse)
        if np.array_equal(sample.y, 1.0 / sample.degree):
            return replace(report, mu_hat=-1.0)
        return report

    return mock.patch.object(estimators, "_blockmodel_gls", patched)


def test_simulate_restart_stderr(tmp_path, capsys):
    edges = tmp_path / "path.txt"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(11)))
    out = tmp_path / "sample.csv"
    argv = ["simulate", "--edges", str(edges), "--target", "6", "--offspring", "0.5 0.5",
            "--seed", "18", "--out", str(out)]
    assert dispatch(argv) == 0
    assert capsys.readouterr().err == RESTART_LINE
    assert fileio.read_sample(out).n == 6


def test_estimate_fgls_fallback_stderr(tmp_path, capsys):
    out = tmp_path / "report.json"
    with _inverse_degrees_not_positive():
        code = dispatch(["estimate", "--sample", str(SAMPLE), "--estimator", "sbm",
                         "--reweight", "fgls", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == FALLBACK_LINE
    # the note goes to standard error, not into the report
    assert '"warnings": []' in out.read_text()


def test_diagnose_failing_estimator_stderr(tmp_path, capsys):
    sample = tmp_path / "two.csv"
    sample.write_text(TWO_NODE_SAMPLE)
    out = tmp_path / "diagnostics.csv"
    assert dispatch(["diagnose", "--sample", str(sample), "--out", str(out)]) == 0
    assert capsys.readouterr().err == SHALLOW_LINE
    # the reweight notes of sbm_y and sbm_z come before the per-estimator notes
    with _inverse_degrees_not_positive():
        assert dispatch(["diagnose", "--sample", str(sample), "--out", str(out)]) == 0
    assert capsys.readouterr().err == 2 * FALLBACK_LINE + SHALLOW_LINE


def test_figure1_csv_bytes(tmp_path):
    out = tmp_path / "ratios.csv"
    argv = ["figure1", "--p", "0.6,0.75,0.9", "--levels", "5..15", "--out", str(out)]
    assert dispatch(argv) == 0
    assert _sha256(out) == FIGURE1_SHA256


@pytest.mark.parametrize("name", sorted(MU_HAT_REPR))
def test_apply_estimator_mu_hat(name):
    sample = fileio.read_sample(SAMPLE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert repr(r.apply_estimator(name, sample).mu_hat) == MU_HAT_REPR[name]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_experiment_rmse_csv_bytes(tmp_path, jobs):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(EXPERIMENT_CONFIG)
    out = tmp_path / "rmse.csv"
    argv = ["experiment", "--config", str(cfg), "--out", str(out), "--jobs", jobs]
    assert dispatch(argv) == 0
    assert _sha256(out) == RMSE_SHA256


def test_experiment_rmse_rows_repr(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(EXPERIMENT_CONFIG)
    rows = r.run_rmse_experiment(fileio.load_experiment_config(cfg)).rows
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == RMSE_ROWS_REPR_SHA256
