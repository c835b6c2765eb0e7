"""Golden outputs: the SHA-256 of every CSV each CLI study writes at a small config.

The digests were taken from the simulator before its batch engine was
rewritten, so they pin the behaviour of the original per-batch code: same
seed, same CSV bytes.  A refactor that changes any reported number, row
order or formatting fails here.  Regenerate a digest only for a documented
reason (an explicit schema change, say), never to make a behaviour change
pass.
"""

import hashlib

import pytest

from qrepnet.cli import main

SMALL = ["--n", "3", "--pair-draws", "2", "--class-draws", "5", "--seed", "7"]

GOLDEN = {
    "topology-study": (
        ["topology-study", *SMALL],
        {
            "fidelity_vs_xi.csv":
                "facd28dd0a514e3e974c06cea101617f2d7041f95a3e1f053d9cb1a79bc144fd",
            "summary.csv":
                "26ad66b4a2cb753a50887b56be77d06f61c242acc5dd11b56e9dfd04e8d8c3ac",
        },
    ),
    "lq-sensitivity": (
        ["lq-sensitivity", *SMALL],
        {
            "lq_sensitivity.csv":
                "e3f5110314bae5825c9ad296554655505804b8ad3099465842df343b3373c9d8",
        },
    ),
    "noise-awareness": (
        ["noise-awareness", *SMALL],
        {
            "fidelity_vs_theta_means.csv":
                "93c69e255ebd9e0a213ec09d3e98384d4856ad697c284f8476793e9bce81c2cd",
            "fidelity_vs_theta_points.csv":
                "14d6a28df4a2d70b7b650dc82e33282bac8bfeda799ec6e1fb4d8aa0218e572e",
        },
    ),
    "blocking": (
        ["blocking", *SMALL],
        {
            "blocking_vs_xi.csv":
                "f7e154d0918b5ffd6838427ab2046816e6ef04446310d6d92ad263d87185f10b",
        },
    ),
    # Class-dependent routing with a threshold, reported as fidelity
    # statistics rather than only blocking probabilities.
    "topology-study-aware": (
        ["topology-study", *SMALL, "--mapping", "aware", "--f-bar", "0.3"],
        {
            "fidelity_vs_xi.csv":
                "b2a304534d5879aceb6ef98501d8605b9a2b996def0350a08764a78a846ed117",
            "summary.csv":
                "4b8a775378049dc4c1a6bc13eab972b7190d25cb81f5568add3c77b3a25610f6",
        },
    ),
    "lq-sensitivity-aware": (
        ["lq-sensitivity", *SMALL, "--mapping", "aware", "--aware-weight", "2.5"],
        {
            "lq_sensitivity.csv":
                "3ff0a978ce2d7032c4569a8719928745ef0b736939a9bf08275adf479810d962",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digests_match_golden(name, tmp_path):
    argv, want = GOLDEN[name]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*.csv"))
    }
    assert got == want
