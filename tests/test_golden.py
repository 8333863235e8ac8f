"""Byte identity of campaign and single-trial outputs against stored digests.

Each digest is the sha256 of a CSV's lines below its `# config=` stamp (the
stamp hashes the SimConfig repr, so it moves with the schema, not with the
results), or of one scheme's block of `single-trial` stdout. A refactor
that keeps the RNG stream must leave every digest in place; a change that
consumes randomness differently updates them and says so in CHANGES.md.
Floating-point results may differ across numpy releases, so the test runs
only on the numpy version that produced the digests.
"""

import hashlib

import numpy as np
import pytest

from mmwia.cli import main

NUMPY_VERSION = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were computed with numpy {NUMPY_VERSION}")

# name -> (command, csv name, config text, trials, seed)
CAMPAIGNS = {
    "p-los": ("p-los", "p_los",
              "[experiment]\np_los_cluster_sizes = 4, 12\np_los_p_blk = 0.1, 0.5\n",
              40, 3),
    "reduction-power": ("reduction-power", "reduction_power",
                        "[experiment]\npower_grid_dbm = -14, 2\nn_tx_values = 4, 8\n"
                        "[channel]\np_blk = 0.3\n"
                        "[protocol]\nbackhaul_latency_s = 0.0015\n",
                        20, 4),
    "reduction-pmiss": ("reduction-pmiss", "reduction_pmiss",
                        "[experiment]\npmiss_grid = 0.01, 0.1\nn_tx_values = 4, 8\n",
                        20, 5),
    "time-cluster": ("time-cluster", "time_cluster",
                     "[experiment]\ncluster_grid = 1, 3, 5, 9\n", 20, 6),
    # more trials than one protocol chunk: pins a second chunk's streams
    "time-cluster two chunks": ("time-cluster", "time_cluster",
                                "[experiment]\ncluster_grid = 1, 3, 5\n", 300, 7),
}

DIGESTS = {
    "p-los":
        "bc1611728f443b2c4afe478698c5a3bfe15d2c01ff8d04f1d5921277eb4258d0",
    "reduction-power":
        "158aeec24563f279568d6c35cdad53541e1c15b4af3c60ac259f8976d85b3c9f",
    "reduction-pmiss":
        "df2790f8664df318961371027100d2eae5f6422a28bbfc71c2b560242b5662ce",
    "time-cluster":
        "0c94327766d3e1b02388396af40820ad4cf95f25ca3eff9f63cf1a63f4a03499",
    "time-cluster two chunks":
        "280f1a2c5ca52e6ea796a5bd1da87bce442c7b76de70020a83ec9cf837841b80",
    "single-trial coordinated 3":
        "309d42dd05d4b6bc5820b418b79054de9c03242539256b2268ad68ec66edd1f3",
    "single-trial coordinated 4":
        "639038326851ee9228b38d88267ab89265e8da34535c35b541822943033aaed0",
    "single-trial exhaustive 11":
        "5790629ee3a24315cec9a1dc9d94fb3d3810dec299b5657d0312acae0b46a9db",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digest(name: str, tmp_path) -> str:
    command, csv_name, config, trials, seed = CAMPAIGNS[name]
    cfg = tmp_path / f"{csv_name}.ini"
    cfg.write_text(config)
    out = tmp_path / csv_name
    assert main([command, "--config", str(cfg), "--trials", str(trials),
                 "--seed", str(seed), "--out", str(out)]) == 0
    lines = (out / f"{csv_name}.csv").read_text().splitlines(keepends=True)
    assert lines[0].startswith("# config=")
    return _sha("".join(lines[1:]))


def single_trial_digest(scheme: str, seed: int, capsys) -> str:
    capsys.readouterr()
    assert main(["single-trial", "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line.startswith("scheme:")]
    (start,) = [i for i in starts if lines[i] == f"scheme:         {scheme}\n"]
    end = min([i for i in starts if i > start], default=len(lines))
    return _sha("".join(lines[start:end]))


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_rows_match_digest(name, tmp_path):
    assert campaign_digest(name, tmp_path) == DIGESTS[name]


# seed 3's coordinated trial reaches round 2 and prints its estimate
@pytest.mark.parametrize("scheme,seed", [("coordinated", 3), ("coordinated", 4),
                                         ("exhaustive", 11)])
def test_single_trial_stdout_matches_digest(scheme, seed, capsys):
    digest = single_trial_digest(scheme, seed, capsys)
    assert digest == DIGESTS[f"single-trial {scheme} {seed}"]
