import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mmwia import cli, experiments, selftest
from mmwia.cli import main
from mmwia.config import load_config
from mmwia.experiments import CHUNK, point_threshold, run_reduction_vs_power, trial_batches
from mmwia.protocol import run_batch


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


def _fresh_process(code: str, cwd=None) -> str:
    """Standard output of ``code`` run in a new interpreter on this path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True).stdout


def test_cli_import_leaves_the_selftest_out():
    """Only the selftest command loads the oracle suite."""
    code = "import sys, mmwia.cli; print('mmwia.selftest' in sys.modules)"
    assert _fresh_process(code).strip() == "False"


@pytest.mark.parametrize("module", ["numpy.ma", "argparse", "locale", "dataclasses"])
def test_reduction_pmiss_leaves_module_out(tmp_path, module):
    """A campaign loads neither numpy.ma, which np.quantile's first call
    imports (the miss-mode calibration takes its quantile without it), nor
    argparse and the locale module that its first parser's gettext lookups
    import, nor dataclasses, whose classes execute generated code at every
    import."""
    cfg = _write(tmp_path, "[experiment]\npmiss_grid = 0.1\nn_tx_values = 4\n"
                           "[detection]\ncalibration_trials = 1000\n")
    code = ("import sys, mmwia.cli\n"
            f"assert mmwia.cli.main(['reduction-pmiss', '--config', {cfg!r}, '--trials', '2',"
            f" '--out', {str(tmp_path / 'o')!r}]) == 0\n"
            f"print({module!r} in sys.modules)")
    assert _fresh_process(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_zero_and_writes_nothing(tmp_path, flag):
    code = f"import sys, mmwia.cli; sys.exit(mmwia.cli.main([{flag!r}]))"
    assert "Usage: mmwia <command>" in _fresh_process(code, cwd=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_option_forms_and_places_agree(tmp_path):
    """--config PATH after the command and --config=PATH before it read the
    same file, and a repeated option takes its last value: the CSVs match
    byte for byte."""
    cfg = _write(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["p-los", "--config", cfg, "--trials", "20", "--seed", "4",
                 "--out", str(out_a)]) == 0
    assert main([f"--config={cfg}", "--seed=9", "--trials=20", "--seed=4",
                 f"--out={out_b}", "p-los"]) == 0
    csv_a = (out_a / "p_los.csv").read_bytes()
    assert csv_a == (out_b / "p_los.csv").read_bytes()
    assert len(csv_a.splitlines()) == 3  # TINY's one grid point, not the defaults'


def test_main_leaves_its_argument_list_as_it_was(tmp_path):
    """A command line whose command comes first survives a run unchanged,
    so a second run of the same list repeats the first."""
    cfg = _write(tmp_path, TINY)
    argv = ["p-los", "--config", cfg, "--trials", "4", "--out", str(tmp_path / "a")]
    copy = list(argv)
    assert main(argv) == 0 and argv == copy
    first = (tmp_path / "a" / "p_los.csv").read_bytes()
    assert main(argv) == 0 and argv == copy
    assert (tmp_path / "a" / "p_los.csv").read_bytes() == first


def test_options_after_the_command_hold_under_posixly_correct(tmp_path, monkeypatch):
    """POSIXLY_CORRECT, which stops GNU-style parsing at the first operand,
    leaves the options after the command in force."""
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["p-los", "--config", cfg, "--trials", "2", "--out", str(out)]) == 0
    assert (out / "p_los.csv").exists()


def test_unique_option_prefix_is_accepted(tmp_path):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["p-los", "--conf", cfg, "--tri", "2", "--out", str(out)]) == 0
    lines = (out / "p_los.csv").read_text().splitlines()
    assert lines[2].endswith(",2")


@pytest.mark.parametrize("argv", [["p-los", "--bogus"], ["p-los", "--seed"],
                                  ["p-los", "--seed", "abc"], ["p-los", "--seed=2.5"],
                                  ["p-los", "--seed=-1"], ["p-los", "time-cluster"]],
                         ids=["unknown-option", "seed-without-value", "non-integer-seed",
                              "fractional-seed", "negative-seed", "two-commands"])
def test_malformed_command_line_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--trials", "2", *argv]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("passed,code", [(True, 0), (False, 3)])
def test_selftest_exit_code(monkeypatch, passed, code):
    monkeypatch.setattr(selftest, "run_selftest", lambda report: passed)
    assert main(["selftest"]) == code


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


@pytest.mark.parametrize("command,key", [("p-los", "ue_phi_3db_deg"),
                                         ("time-cluster", "sc_phi_3db_deg")])
def test_overflowing_beamwidth_is_config_error(tmp_path, command, key):
    """A beamwidth whose peak gain overflows fails on load, not in the run."""
    cfg = _write(tmp_path, f"[antenna]\n{key} = 1e-200\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--trials", "4", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["empty-path", "directory", "not-utf-8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[experiment]\ntrials = 2 \xff\n")
    path = {"empty-path": "", "directory": str(tmp_path), "not-utf-8": str(bad)}[kind]
    out = tmp_path / "o"
    assert main(["p-los", "--config", path, "--trials", "2", "--out", str(out)]) == 2
    assert "config error: cannot read" in capsys.readouterr().err
    assert not out.exists()


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


def _assert_block(report, out, ue):
    """One scheme's block of single-trial stdout prints row 0 of outcomes
    ``out``: a censored trial names no detecting cell or pair, and a trial
    without an estimate (NaN) prints none."""
    hit = bool(out.success[0])
    assert report["success"] == str(hit)
    assert report["slots_used"] == str(out.slots_used[0])
    assert report["rounds"] == str(out.rounds[0])
    assert report["ia_time_s"] == f"{out.ia_time_s[0]:.6f}"
    assert report["detecting_cell"] == str(out.detecting_cell[0] if hit else None)
    assert report["detecting_pair"] == str(tuple(out.detecting_pair[0].tolist())
                                           if hit else None)
    assert report["true_ue"] == f"({ue[0]:.2f}, {ue[1]:.2f})"
    x, y = out.estimated_ue[0]
    if math.isnan(x):
        assert report["estimated_ue"] == "none"
    else:
        assert report["estimated_ue"] == f"({x:.2f}, {y:.2f})"


@pytest.mark.parametrize("scheme", ["coordinated", "exhaustive"])
def test_single_trial_is_trial_zero_of_point_zero(capsys, scheme):
    """Each scheme's block of single-trial is the outcome the campaigns' own
    chunk generator and threshold give trial 0 of grid point 0's chunk 0."""
    cfg = load_config(None)
    estimated = 0
    for seed in range(6):
        capsys.readouterr()
        assert main(["single-trial", "--seed", str(seed)]) == 0
        blocks = _single_trial_blocks(capsys.readouterr().out)
        (report,) = [b for b in blocks if b["scheme"] == scheme]
        draw, protocol_seed = next(trial_batches(cfg, CHUNK, seed, 0))
        (out,) = run_batch(cfg, point_threshold(cfg, seed, 0), draw, protocol_seed,
                           (scheme,))
        _assert_block(report, out, draw[1][0])
        estimated += not math.isnan(out.estimated_ue[0, 0])
    if scheme == "coordinated":
        assert estimated > 0, "no seed reached the coordinated second round"


def test_single_trial_is_row_zero_of_a_paired_campaign(capsys, monkeypatch):
    """single-trial prints, per scheme, trial 0 of the first chunk that a
    paired campaign at the default power and codebook runs."""
    cfg = load_config(None)
    cfg = cfg.replace(experiment={"power_grid_dbm": (cfg.channel.p_ue_dbm,),
                                  "n_tx_values": (cfg.antenna.n_tx,)})
    for seed in (2, 9):
        first = {}

        def keep(runner):
            def run(point_cfg, gamma, draw, *args):
                outs = runner(point_cfg, gamma, draw, *args)
                for out in outs:
                    first.setdefault(out.scheme, (out, draw[1][0]))
                return outs
            return run

        monkeypatch.setattr(experiments, "run_batch", keep(experiments.run_batch))
        run_reduction_vs_power(cfg, CHUNK + 3, seed)
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["single-trial", "--seed", str(seed)]) == 0
        blocks = _single_trial_blocks(capsys.readouterr().out)
        assert [b["scheme"] for b in blocks] == list(first)
        for report in blocks:
            _assert_block(report, *first[report["scheme"]])


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


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_stdout_is_no_error(lines_read):
    """A reader that closes the pipe before any output or after one line
    (mmwia single-trial | head -1) gets exit code 0 and an empty stderr:
    no experiment error and no broken pipe at the interpreter's exit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-m", "mmwia.cli", "single-trial", "--seed", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc:
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"scheme:")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == b""


def test_a_broken_pipe_leaves_no_descriptor_open(monkeypatch):
    """On a broken pipe the report points standard output at os.devnull and
    closes the descriptor it opened to do so."""
    sources = []

    def broken_pipe(*args, **kwargs):
        raise BrokenPipeError

    # print and dup2 are stand-ins: the test's own standard output stays put
    monkeypatch.setattr(cli, "print", broken_pipe, raising=False)
    monkeypatch.setattr(cli.os, "dup2", lambda fd, fd2: sources.append(fd))
    monkeypatch.setattr(cli.sys, "stdout", SimpleNamespace(fileno=lambda: 1))
    cli._print_report("lost\n")
    (fd,) = sources
    with pytest.raises(OSError):
        os.fstat(fd)


@pytest.mark.parametrize("passed,code", [(True, 0), (False, 3)])
def test_selftest_on_a_closed_stdout_keeps_its_exit_code(passed, code):
    """mmwia selftest | head -1: the lines after the reader has gone are
    dropped, with no broken pipe on stderr, and the exit code still
    reports the checks. Two stand-in checks replace the suite; the second
    ends only once the reader has closed the pipe."""
    code_text = ("import sys\n"
                 "from mmwia import cli, selftest\n"
                 "def second():\n"
                 "    sys.stdin.read()\n"
                 f"    assert {passed}\n"
                 "selftest.CHECKS = [('first', lambda: None), ('second', second)]\n"
                 "sys.exit(cli.main(['selftest']))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-c", code_text], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc:
        assert proc.stdout.readline() == b"[PASS] first\n"
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read()
    assert proc.returncode == code
    if passed:
        assert err == b""
    else:
        assert b"AssertionError" in err and b"BrokenPipe" not in err


@pytest.mark.parametrize("command,config", [
    ("p-los", ""),
    ("reduction-power", ""),
    ("reduction-pmiss", "[channel]\np_blk = 0.3\n"),  # blocked links routed
    ("time-cluster", ""),
    ("single-trial", ""),
])
def test_campaign_leaks_no_floating_point_warning(tmp_path, capsys, command, config):
    """With numpy raising on division by zero, overflow and invalid
    operations, and every warning an error, a campaign exits 0 and writes
    nothing to standard error: no step that relies on a masked or silenced
    invalid operation lets one escape."""
    args = [command, "--config", _write(tmp_path, config), "--seed", "3",
            "--out", str(tmp_path / "out")]
    if command != "single-trial":
        args += ["--trials", "300"]
    with np.errstate(divide="raise", over="raise", invalid="raise"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    assert capsys.readouterr().err == ""
