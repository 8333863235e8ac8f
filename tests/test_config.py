import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from mmwia.config import _PARSERS, ConfigError, SimConfig, load_config
from mmwia.preamble import false_alarm_threshold, miss_threshold


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.channel.bandwidth_hz == 1.08e6
    assert cfg.channel.noise_density_dbm_hz == -171.0
    assert cfg.geometry.side_m == 200.0
    assert cfg.preamble.n_zc == 839


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


def test_example_config_is_the_defaults():
    """The annotated schema loads, inline comments and all, to the defaults."""
    assert load_config(EXAMPLE) == SimConfig()


def test_every_field_type_has_a_parser():
    """A section field of a new type fails here, not at the first file
    that sets it."""
    for section in fields(SimConfig):
        for f in fields(section.default_factory):
            assert f.type in _PARSERS, (section.name, f.name, f.type)


def test_example_config_lists_every_key():
    """Each section of the example names every key of its dataclass, set
    or commented out, and no other."""
    listed: dict[str, set] = {}
    section = None
    for line in EXAMPLE.read_text().splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = listed.setdefault(m[1], set())
        elif section is not None and (m := re.match(r"#?\s*(\w+)\s*=", line)):
            section.add(m[1])
    assert listed == {s.name: {f.name for f in fields(s.default_factory)}
                      for s in fields(SimConfig)}


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    assert load_config(p) == load_config(None)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_overrides_applied(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text(
        "[antenna]\nn_tx = 4\n\n[experiment]\npmiss_grid = 0.01, 0.1\n"
        "[channel]\np_ue_dbm = -20\n")
    cfg = load_config(p)
    assert cfg.antenna.n_tx == 4
    assert cfg.experiment.pmiss_grid == (0.01, 0.1)
    assert cfg.channel.p_ue_dbm == -20.0
    # untouched sections keep defaults
    assert cfg.preamble.n_zc == 839


def test_composite_zc_length_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[preamble]\nn_zc = 840\n")
    with pytest.raises(ConfigError, match="not prime"):
        load_config(p)


def test_probability_out_of_range_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[channel]\np_blk = 1.5\n")
    with pytest.raises(ConfigError, match="probability out of range"):
        load_config(p)


def test_unknown_key_and_section_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[channel]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        load_config(p)
    # keys that change no result do not exist
    for section, key in (("channel", "carrier_hz"), ("preamble", "root_u")):
        p.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(p)
    p.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[nonsense\]"):
        load_config(p)
    # configparser would copy [DEFAULT] keys into every section
    for text in ("[DEFAULT]\nbogus = 1\n", "[DEFAULT]\nn_sc = 5\n[geometry]\n"):
        p.write_text(text)
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config(p)


def test_unparsable_value_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[antenna]\nn_tx = eight\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)


@pytest.mark.parametrize("section,key,value", [
    ("channel", "p_ue_dbm", "nan"),
    ("protocol", "t_ra_s", "nan"),
    ("geometry", "side_m", "inf"),
    ("channel", "noise_density_dbm_hz", "-inf"),
    ("experiment", "power_grid_dbm", "-14, nan"),
    ("experiment", "pmiss_grid", ""),
    ("experiment", "n_tx_values", ""),
    ("experiment", "p_los_cluster_sizes", ","),
])
def test_non_finite_and_empty_values_rejected(tmp_path, section, key, value):
    p = tmp_path / "c.ini"
    p.write_text(f"[{section}]\n{key} = {value}\n")
    match = "not finite" if value.strip(", ") else "empty list"
    with pytest.raises(ConfigError, match=match):
        load_config(p)


def test_detection_mode_validated(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[detection]\nmode = sometimes\n")
    with pytest.raises(ConfigError, match="mode"):
        load_config(p)


@pytest.mark.parametrize("text,match", [
    ("[antenna]\nn_rx = 2\n", "n_rx"),
    ("[antenna]\nn_tx = 2\n", "n_tx"),
    ("[experiment]\nn_tx_values = 2, 4\n", "n_tx_values"),
])
def test_small_codebook_without_beamwidth_rejected(tmp_path, text, match):
    """Below three beams the default beamwidth 360/n is not below 180 deg."""
    p = tmp_path / "c.ini"
    p.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_config(p)


def test_small_codebook_with_beamwidth_accepted(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[antenna]\nn_rx = 2\nsc_phi_3db_deg = 90\n"
                 "ue_phi_3db_deg = 90\n[experiment]\nn_tx_values = 2, 4\n")
    cfg = load_config(p)
    assert cfg.sc_codebook().n_beams == 2
    assert cfg.ue_codebook(2).n_beams == 2


@pytest.mark.parametrize("n_sc", [1, 2])
def test_cluster_below_three_cells_rejected(tmp_path, n_sc):
    """The coordinated scheme needs the three base cells."""
    p = tmp_path / "c.ini"
    p.write_text(f"[geometry]\nn_sc = {n_sc}\n")
    with pytest.raises(ConfigError, match="n_sc"):
        load_config(p)


def test_cluster_grid_size_two_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[experiment]\ncluster_grid = 1, 2, 3\n")
    with pytest.raises(ConfigError, match="cluster_grid"):
        load_config(p)
    p.write_text("[experiment]\ncluster_grid = 1, 3\n")
    assert load_config(p).experiment.cluster_grid == (1, 3)


@pytest.mark.parametrize("grid,match", [
    ("3, 5", "single-cell baseline"),
    ("1, 3, 3", "repeat"),
    ("5, 1, 5", "repeat"),
], ids=["no-baseline", "repeat", "repeat-unsorted"])
def test_cluster_grid_needs_baseline_and_distinct_sizes(tmp_path, grid, match):
    """time-cluster normalizes by the size-1 row and keys its results by
    size, so a grid without 1 or with a size twice is a config error."""
    p = tmp_path / "c.ini"
    p.write_text(f"[experiment]\ncluster_grid = {grid}\n")
    with pytest.raises(ConfigError, match=match):
        load_config(p)


def test_beamwidth_defaults_track_codebook_size():
    cfg = SimConfig()
    assert cfg.ue_codebook().pattern.phi_3db == pytest.approx(2 * math.pi / cfg.antenna.n_tx)
    assert cfg.sc_codebook().pattern.phi_3db == pytest.approx(2 * math.pi / cfg.antenna.n_rx)


def test_reference_budget_uses_fixed_gains():
    cfg = SimConfig()
    ref = cfg.reference_rx_dbm()
    # moving the UE codebook size must not move the reference budget
    from dataclasses import replace
    cfg4 = replace(cfg, antenna=replace(cfg.antenna, n_tx=4))
    assert cfg4.reference_rx_dbm() == ref


def test_threshold_follows_detection_mode():
    """fa mode is the closed form; miss mode calibrates on the reference link."""
    from dataclasses import replace
    cfg = SimConfig()
    seq = cfg.sequence()
    fa = replace(cfg, detection=replace(cfg.detection, mode="fa", target=0.05))
    assert fa.threshold(-110.67, seq) == false_alarm_threshold(0.05, -110.67, 839)
    assert fa.threshold(-110.67, seq, target=0.2) == false_alarm_threshold(
        0.2, -110.67, 839)
    assert cfg.threshold(-110.67, seq, seed=4) == miss_threshold(
        0.01, cfg.reference_rx_dbm(), -110.67, seq, trials=10_000, seed=4)


def test_config_hash_stable_and_sensitive(tmp_path):
    a, b = SimConfig(), SimConfig()
    assert a.config_hash() == b.config_hash()
    p = tmp_path / "c.ini"
    p.write_text("[geometry]\nside_m = 150\n")
    assert load_config(p).config_hash() != a.config_hash()
