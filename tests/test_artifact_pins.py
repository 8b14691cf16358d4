"""sha256 pins of distribution artifacts.

The digests were taken from the row-by-row `repr` writers before the
distribution file codec was vectorized; any byte drift in the codec fails here.
"""
import hashlib

import numpy as np
import pytest
from helpers import matrix_json

from scattershot.cli import main

SEVEN = ":".join(["1"] * 7 + ["0"] * 13)
SIX = ":".join(["1"] * 6 + ["0"] * 14)
HAAR = ["--m", "20", "--seed", "11"]

# name: (argv after `distribution`, sha256 of the file it writes)
PINS = {
    "m20-n7-indist-renorm.csv": (
        [*HAAR, "--input", SEVEN, "--renormalize"],
        "61690fb9ec2d25e7eb2e4cf00d40835e91f658eadc7c5c6842b4c1ec4d9f64a0"),
    "m20-n7-indist-renorm.json": (
        [*HAAR, "--input", SEVEN, "--renormalize", "--format", "json"],
        "078ab652e7b4f7a2ab1980aa29b179eba8b3ee5905591d15aafc9d7032b26f6c"),
    "m20-n7-dist-renorm.csv": (
        [*HAAR, "--input", SEVEN, "--renormalize", "--model", "distinguishable"],
        "428168ff1c6b0ce26678f4b719b7f211883b26b03e389eb0c3cac7e086ae9ca2"),
    "m20-n7-dist-renorm.json": (
        [*HAAR, "--input", SEVEN, "--renormalize", "--model", "distinguishable",
         "--format", "json"],
        "4ddddbe5444099a4b1911c74a11fe1ed512ef84a0068f8073d7d23c67a04e765"),
    "m20-n7-indist-raw.csv": (
        [*HAAR, "--input", SEVEN],
        "71567fc142588c4231bfc10f95f76a3a80bb6509dd1f513ce71fbd560e04da49"),
    "m20-n7-indist-raw.json": (
        [*HAAR, "--input", SEVEN, "--format", "json"],
        "c4bad346a40f42fe43ac1a92585a65ef25c7933d23a60e7086d16a71be8d1ffd"),
    "m20-n7-dist-raw.csv": (
        [*HAAR, "--input", SEVEN, "--model", "distinguishable"],
        "21c0e8320da74390407a8ca31c2cdda71253b7165c5bafd30d5cfd133f6ae8d5"),
    "m20-n7-dist-raw.json": (
        [*HAAR, "--input", SEVEN, "--model", "distinguishable", "--format", "json"],
        "a32e997c20c67c383510b37df199b1666c13377d9d45d31f2f1c01ff5122ceba"),
    "m20-n6-loss-out-1.json": (
        [*HAAR, "--input", SIX, "--loss-out", "1", "--format", "json"],
        "0ec57cf50952cf6bdf4b0eebf54eca4f712e5952cda6f5aa7fa3c66bb20bd9f1"),
    "m20-n6-loss-in-1.csv": (
        [*HAAR, "--input", SIX, "--loss-in", "1"],
        "5d969dd4e1c170c046eb3e6dc08735a905bee5cadbc0497a8afa4b49810e0cc8"),
    # occupations of 10
    "m2-n10-full-fock.csv": (
        ["--m", "2", "--seed", "5", "--input", "6:4", "--family", "full-fock"],
        "31e0ac6487ffb2be35658b4ac7b42bec320560dcedbcb344dac965679b91396b"),
    "m2-n10-full-fock.json": (
        ["--m", "2", "--seed", "5", "--input", "6:4", "--family", "full-fock",
         "--format", "json"],
        "f9338603101076cbd14e3600fc028f3480723ff088a593ae0460b3d7bd19f58e"),
    # the identity keeps its input: one probability 1.0, every other one exactly 0.0
    "identity-zeros.csv": (
        ["--unitary", "IDENTITY", "--input", "1:1:0:0:0", "--family", "full-fock"],
        "422abd480a5b8f55182b718a2fcf3fd690b5243caba069ee30c050ff9c925926"),
    "identity-zeros.json": (
        ["--unitary", "IDENTITY", "--input", "1:1:0:0:0", "--family", "full-fock",
         "--format", "json"],
        "4f464d9889211c9cf2268f4939a85611b99476e412e8ff5fbb5ff4fb8edcde5e"),
}


def _write(tmp_path, name: str) -> bytes:
    argv, _ = PINS[name]
    identity = tmp_path / "identity.json"
    identity.write_text(matrix_json(np.eye(5, dtype=complex)))
    argv = [str(identity) if arg == "IDENTITY" else arg for arg in argv]
    out = tmp_path / name
    assert main(["distribution", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(PINS))
def test_distribution_artifact_bytes_are_pinned(tmp_path, name):
    assert hashlib.sha256(_write(tmp_path, name)).hexdigest() == PINS[name][1]
