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
}

DIGESTS = {
    "p-los":
        "1fd068c3a16e87b101ae6c773d992b4a11db829b2fc68b0ee63f764ab17f6665",
    "reduction-power":
        "3e5f3107be5fce2522bbd0848ad1dbebdf6a8cc87acf04271c6dd97eb7506966",
    "reduction-pmiss":
        "529ffcba78ca575d4f375db3564742d3deaa54974e2b8711485687ea6f594eab",
    "time-cluster":
        "e07c0577c7ff0476296d54609b643e8fdb2e0572eda0b5ec6addd6a0eef333c4",
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


@pytest.mark.parametrize("scheme,seed", [("coordinated", 4), ("exhaustive", 11)])
def test_single_trial_stdout_matches_digest(scheme, seed, capsys):
    digest = single_trial_digest(scheme, seed, capsys)
    assert digest == DIGESTS[f"single-trial {scheme} {seed}"]
