"""Byte pins of the files ``gen-graph``, ``simulate`` and the CSV writers produce.

Each digest is the SHA-256 of a file written by the code that stood before
the sample reader and the CSV writers were rewritten; the rewrite must leave
every byte as it was.
"""

import hashlib

import numpy as np
import pytest

import rdsgls as r
from rdsgls import fileio
from rdsgls.cli import dispatch

CONFIG = (
    "[network]\nsource = dcsbm\nnodes = 200\nexpected_degree = 12\ntheta = gamma\n"
    "[outcomes]\naligned = block_values:1,1,0\ncorrelated = block_bernoulli:0.7,0.1,0.9\n"
    "unc = bernoulli:0.66\n"
    "[run]\nsizes = 30\nreplicates = 1\nseed = 314\n"
)
GEN_GRAPH_SHA256 = {
    "edges": "95d265f35e23d6bad5b23f539a96ac3e4a83e71517c8039cb63c7df1ad555abc",
    "attributes": "f0ce79f50aff979d408ba07e46bf9685d8d32dc055a96e470a1624fbcea7caff",
}
SIMULATE_SHA256 = "3a8febf270b06faef6fb29121b82ef964755237afd92c370d04ef2db55c4c0d5"
SAMPLE_SHA256 = {
    "named_blocks": "d13fa8db2fa0f0091492aac78b305c3eca20f6803d84b14a84a8a609f40dd73e",
    "int_blocks": "58ef337276ebf54eded4d79e60b7c813d490c1292a308312dbf940b2d6f453df",
    "no_blocks_no_y": "881ca947c1ddeaa914393df3e8bf3e90dba84e4f4f45df0fa4f67b232ad4564a",
}
ATTRIBUTES_SHA256 = {
    "named_blocks": "bdbe38ab8803ffdea9c275085799b1a81c898716d0989ddb6ac81dc92efd1b91",
    "int_blocks": "7b5092bab0d4db8b579ca5773e4a48f3c59d7052ccc47f3938390af836f84d55",
    "no_block_column": "02f94a6f01e89b28fabc42ceb275f1211e22f95952ca16df93c3c46aad595063",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def generated(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG)
    edges, attrs = tmp_path / "net.txt", tmp_path / "attrs.csv"
    argv = ["gen-graph", "--config", str(cfg), "--out-edges", str(edges),
            "--out-attributes", str(attrs)]
    assert dispatch(argv) == 0
    return edges, attrs


def test_gen_graph_bytes(generated):
    edges, attrs = generated
    assert {"edges": _sha256(edges), "attributes": _sha256(attrs)} == GEN_GRAPH_SHA256


def test_simulate_bytes(tmp_path, generated):
    edges, attrs = generated
    out = tmp_path / "sample.csv"
    argv = ["simulate", "--edges", str(edges), "--attributes", str(attrs),
            "--outcome", "correlated", "--target", "60", "--seed-rule", "uniform",
            "--seed", "5", "--out", str(out)]
    assert dispatch(argv) == 0
    assert _sha256(out) == SIMULATE_SHA256


def _sample(outcome=True, block=True):
    tree = r.ReferralTree(np.array([-1, 0, 0, 1, 1, 2]))
    return r.RdsSample(
        tree=tree,
        node=np.array([40, 3, -(2**63), 2**63 - 1, 0, 7]),
        degree=np.array([3.0, 1e300, 2.5, 1e-300, 4.0, 0.1]),
        outcome=np.array([0.1, -0.0, 1e300, 2 / 3, -1.5, 0.0]) if outcome else None,
        block=np.array([0, 1, 2, 0, 2, 1]) if block else None,
    )


@pytest.mark.parametrize("case", sorted(SAMPLE_SHA256))
def test_write_sample_bytes(tmp_path, case):
    path = tmp_path / "s.csv"
    if case == "named_blocks":
        fileio.write_sample(_sample(), path, block_names=["b,x", 'q"', " w"])
    elif case == "int_blocks":
        fileio.write_sample(_sample(), path)
    else:
        fileio.write_sample(_sample(outcome=False, block=False), path)
    assert _sha256(path) == SAMPLE_SHA256[case]


@pytest.mark.parametrize("case", sorted(ATTRIBUTES_SHA256))
def test_write_attributes_bytes(tmp_path, case):
    path = tmp_path / "attrs.csv"
    outcomes = {
        "a": np.array([1e300, -0.0, 0.5, 2 / 3]),
        "b": np.array([0.0, -1e-300, 7.0, 1e16]),
        "c": np.array([1, 0, 3, -2]),
    }
    blocks = np.array([1, 0, 2, 1])
    if case == "named_blocks":
        fileio.write_attributes(path, blocks=blocks, block_names=["b,x", 'q"', " w"],
                                outcomes=outcomes)
    elif case == "int_blocks":
        fileio.write_attributes(path, blocks=blocks, outcomes=outcomes)
    else:
        fileio.write_attributes(path, outcomes=outcomes)
    assert _sha256(path) == ATTRIBUTES_SHA256[case]
