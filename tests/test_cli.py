import pytest

from mmwia import cli
from mmwia.cli import main
from mmwia.config import load_config
from mmwia.experiments import point_threshold, trial_setups
from mmwia.protocol import run_coordinated, run_exhaustive


def _write(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


TINY = """
[experiment]
p_los_cluster_sizes = 4
p_los_p_blk = 0.2
"""


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "[preamble]\nn_zc = 840\n")
    assert main(["p-los", "--config", cfg]) == 2
    # a negative master seed fails on load, not inside the seed sequence
    cfg = _write(tmp_path, "[experiment]\nmaster_seed = -1\n")
    assert main(["p-los", "--config", cfg]) == 2
    # single-trial prints both schemes; no section picks one
    cfg = _write(tmp_path, "[single_trial]\nscheme = exhaustive\n")
    capsys.readouterr()
    assert main(["single-trial", "--config", cfg]) == 2
    assert "unknown section [single_trial]" in capsys.readouterr().err


def test_small_codebook_is_config_error(tmp_path):
    cfg = _write(tmp_path, "[antenna]\nn_rx = 2\n")
    assert main(["single-trial", "--config", cfg, "--seed", "3"]) == 2
    cfg = _write(tmp_path, "[experiment]\nn_tx_values = 2\n")
    assert main(["reduction-pmiss", "--config", cfg, "--trials", "2",
                 "--out", str(tmp_path / "o")]) == 2


def test_small_cluster_is_config_error(tmp_path):
    cfg = _write(tmp_path, "[geometry]\nn_sc = 2\n")
    assert main(["reduction-pmiss", "--config", cfg, "--trials", "5",
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["[channel]\np_ue_dbm = nan\n",
                                  "[experiment]\ncluster_grid =\n"],
                         ids=["nan", "empty-grid"])
def test_non_finite_or_empty_value_is_config_error(tmp_path, text):
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["time-cluster", "--config", cfg, "--trials", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_experiment_error_exit_code(tmp_path, monkeypatch, capsys):
    def fail(cfg, trials, master_seed):
        raise RuntimeError("campaign broke")
    monkeypatch.setattr(cli, "run_time_vs_cluster", fail)
    assert main(["time-cluster", "--trials", "2",
                 "--out", str(tmp_path / "o")]) == 3
    assert "experiment error: campaign broke" in capsys.readouterr().err


def test_six_beam_estimate_on_a_cell_takes_the_fallback_sweep(tmp_path):
    """At 6 beams some angle triples place the UE exactly on a cell; such a
    trial sweeps unordered instead of failing the campaign."""
    cfg = _write(tmp_path, "[antenna]\nn_tx = 6\n"
                           "[experiment]\nn_tx_values = 6\npmiss_grid = 0.01\n")
    assert main(["reduction-pmiss", "--config", cfg, "--trials", "20",
                 "--seed", "3", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("grid", ["3, 5", "1, 3, 3"], ids=["no-baseline", "repeat"])
def test_bad_cluster_grid_is_config_error(tmp_path, grid):
    """A grid without the single-cell baseline, or with a size twice, is
    rejected before anything is written."""
    cfg = _write(tmp_path, f"[experiment]\ncluster_grid = {grid}\n")
    out = tmp_path / "o"
    assert main(["time-cluster", "--config", cfg, "--trials", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_p_los_writes_csv_and_svg(tmp_path, capsys):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "results"
    rc = main(["p-los", "--config", cfg, "--trials", "40", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    csv_path = out / "p_los.csv"
    svg_path = out / "p_los.svg"
    assert csv_path.exists() and svg_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("# config=") and "seed=3" in lines[0]
    assert lines[1] == "n_sc,p_blk,p_los,stderr,trials"
    assert len(lines) == 3
    svg = svg_path.read_text()
    assert svg.startswith("<!-- config=") and "seed=3" in svg.split("\n")[0]
    assert "<svg" in svg and "<polyline" in svg


def test_byte_identical_reruns(tmp_path):
    cfg = _write(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["p-los", "--config", cfg, "--trials", "40", "--seed", "5",
                 "--out", str(out_a)]) == 0
    assert main(["p-los", "--config", cfg, "--trials", "40", "--seed", "5",
                 "--out", str(out_b)]) == 0
    assert (out_a / "p_los.csv").read_bytes() == (out_b / "p_los.csv").read_bytes()


def test_env_overrides(tmp_path, monkeypatch):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "env_out"
    monkeypatch.setenv("SIM_OUT", str(out))
    for seed in ("9", "0"):
        monkeypatch.setenv("SIM_SEED", seed)
        assert main(["p-los", "--config", cfg, "--trials", "20"]) == 0
        lines = (out / "p_los.csv").read_text().split("\n")
        assert f"seed={seed}" in lines[0]


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_trials_below_one_is_usage_error(tmp_path, trials):
    out = tmp_path / "o"
    assert main(["time-cluster", "--trials", trials, "--out", str(out)]) == 1
    assert not out.exists()


def test_negative_seed_is_usage_error(tmp_path):
    out = tmp_path / "o"
    assert main(["time-cluster", "--seed", "-1", "--trials", "2",
                 "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_sim_seed_is_usage_error(tmp_path, monkeypatch, value):
    out = tmp_path / "o"
    monkeypatch.setenv("SIM_SEED", value)
    assert main(["time-cluster", "--trials", "2", "--out", str(out)]) == 1
    assert not out.exists()


def _single_trial_blocks(text):
    """single-trial stdout as one {key: value} dict per scheme, in print order."""
    blocks = []
    for line in text.splitlines():
        key, value = line.split(":", 1)
        if key == "scheme":
            blocks.append({})
        blocks[-1][key] = value.strip()
    return blocks


def test_single_trial_output(tmp_path, capsys):
    assert main(["single-trial", "--seed", "3"]) == 0
    blocks = _single_trial_blocks(capsys.readouterr().out)
    assert [b["scheme"] for b in blocks] == ["exhaustive", "coordinated"]
    for block in blocks:
        for key in ("success", "slots_used", "ia_time_s", "detecting_cell",
                    "true_ue"):
            assert key in block


@pytest.mark.parametrize("scheme", ["coordinated", "exhaustive"])
def test_single_trial_is_trial_zero_of_point_zero(capsys, scheme):
    """Each scheme's block of single-trial is the outcome the campaigns' own
    trial generator and threshold give trial 0 of grid point 0."""
    cfg = load_config(None)
    runner = run_coordinated if scheme == "coordinated" else run_exhaustive
    estimated = 0
    for seed in range(6):
        capsys.readouterr()
        assert main(["single-trial", "--seed", str(seed)]) == 0
        blocks = _single_trial_blocks(capsys.readouterr().out)
        (report,) = [b for b in blocks if b["scheme"] == scheme]
        setup, protocol_seed = next(trial_setups(
            cfg, cfg.antenna.n_tx, cfg.channel.p_ue_dbm,
            point_threshold(cfg, seed, 0), 1, seed, 0))
        out = runner(setup, protocol_seed)
        assert report["success"] == str(out.success)
        assert report["slots_used"] == str(out.slots_used)
        assert report["rounds"] == str(out.rounds)
        assert report["ia_time_s"] == f"{out.ia_time_s:.6f}"
        assert report["detecting_cell"] == str(out.detecting_cell)
        assert report["detecting_pair"] == str(out.detecting_pair)
        assert report["true_ue"] == f"({setup.ue[0]:.2f}, {setup.ue[1]:.2f})"
        if out.estimated_ue is None:
            assert report["estimated_ue"] == "none"
        else:
            x, y = out.estimated_ue
            assert report["estimated_ue"] == f"({x:.2f}, {y:.2f})"
            estimated += 1
    if scheme == "coordinated":
        assert estimated > 0, "no seed reached the coordinated second round"


def test_campaigns_read_their_own_trial_count(tmp_path):
    """Without --trials, p-los runs p_los_trials per point and the protocol
    campaigns run trials."""
    cfg = _write(tmp_path, "[experiment]\np_los_trials = 7\ntrials = 3\n"
                           "p_los_cluster_sizes = 4\np_los_p_blk = 0.2\n"
                           "power_grid_dbm = -14\npmiss_grid = 0.1\n"
                           "n_tx_values = 4\ncluster_grid = 1, 3\n"
                           "[detection]\ncalibration_trials = 1000\n")
    out = tmp_path / "o"
    expected = {"p-los": 7, "reduction-power": 3, "reduction-pmiss": 3,
                "time-cluster": 3}
    for command, trials in expected.items():
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        csv_name = command.replace("-", "_")
        lines = (out / f"{csv_name}.csv").read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), line.split(",")))
                for line in lines[2:]]
        assert rows and all(row["trials"] == str(trials) for row in rows)
