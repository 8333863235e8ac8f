import math
import re
from pathlib import Path

import pytest

from mmwia.config import ConfigError, SimConfig, _parser, load_config
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
    """A section field whose default is of a new type fails here, not at
    the first file that sets it."""
    for name, section in SimConfig()._asdict().items():
        for key, default in section._asdict().items():
            try:
                _parser(default)
            except (KeyError, IndexError):
                pytest.fail(f"[{name}] {key}: no parser for its default {default!r}")


def test_example_config_lists_every_key():
    """Each section of the example names every field of its class, set or
    commented out, and no other."""
    listed: dict[str, set] = {}
    section = None
    for line in EXAMPLE.read_text().splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = listed.setdefault(m[1], set())
        elif section is not None and (m := re.match(r"#?\s*(\w+)\s*=", line)):
            section.add(m[1])
    assert listed == {name: set(section._fields)
                      for name, section in SimConfig()._asdict().items()}


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
    ("experiment", "cluster_grid", ""),
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
    assert cfg.replace(antenna={"n_tx": 2}).ue_codebook().n_beams == 2


@pytest.mark.parametrize("key", ["ue_phi_3db_deg", "sc_phi_3db_deg"])
def test_beamwidth_whose_peak_gain_overflows_rejected(tmp_path, key):
    """(1.6162/sin(phi/2))**2 raises OverflowError below about 1e-152 degrees
    and gives inf at subnormal widths; both are config errors."""
    p = tmp_path / "c.ini"
    for deg in ("1e-200", "1e-320"):
        p.write_text(f"[antenna]\n{key} = {deg}\n")
        with pytest.raises(ConfigError, match=rf"\[antenna\] {key}: .* too narrow"):
            load_config(p)
    p.write_text(f"[antenna]\n{key} = 1e-150\n")
    load_config(p)  # finite, however narrow


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
    cfg4 = cfg.replace(antenna={"n_tx": 4})
    assert cfg4.reference_rx_dbm() == ref


def test_threshold_follows_detection_mode():
    """fa mode is the closed form; miss mode calibrates on the reference link."""
    cfg = SimConfig()
    seq = cfg.sequence()
    fa = cfg.replace(detection={"mode": "fa", "target": 0.05})
    assert fa.threshold(-110.67, seq) == false_alarm_threshold(0.05, -110.67, 839)
    assert fa.threshold(-110.67, seq, target=0.2) == false_alarm_threshold(
        0.2, -110.67, 839)
    assert cfg.threshold(-110.67, seq, seed=4) == miss_threshold(
        0.01, cfg.reference_rx_dbm(), -110.67, seq, trials=10_000, seed=4)


def test_miss_threshold_needs_a_seed():
    """A miss-mode threshold calibrates from its seed and never from OS
    entropy; the closed-form fa threshold draws nothing and needs none."""
    cfg = SimConfig().replace(detection={"mode": "miss"})
    seq = cfg.sequence()
    for call in (lambda: cfg.threshold(-110.67, seq),
                 lambda: cfg.threshold(-110.67, seq, seed=None, target=0.1)):
        with pytest.raises(ValueError, match="calibration seed"):
            call()
    fa = cfg.replace(detection={"mode": "fa"})
    assert fa.threshold(-110.67, seq) == fa.threshold(-110.67, seq, seed=None)


def test_config_hash_is_pinned():
    """Every CSV and SVG stamp carries this hash of the defaults; it covers
    the config's repr, so a schema change moves it and fails here."""
    assert SimConfig().config_hash() == "cb9e1504e2ae"
    assert load_config(EXAMPLE).config_hash() == "cb9e1504e2ae"


def test_replace_sets_fields_and_rejects_unknown_names():
    """``replace`` swaps the named fields of each section and leaves every
    other field and the original config as they were; it validates nothing."""
    cfg = SimConfig()
    point = cfg.replace(geometry={"n_sc": 1}, channel={"p_blk": 0.25})
    assert point.geometry == cfg.geometry._replace(n_sc=1)
    assert point.channel == cfg.channel._replace(p_blk=0.25)
    assert point.antenna == cfg.antenna and point[3:] == cfg[3:]
    assert cfg == SimConfig()
    assert cfg.replace() == cfg
    with pytest.raises(AttributeError):
        cfg.replace(geometri={"n_sc": 5})
    with pytest.raises(ValueError, match="n_cells"):
        cfg.replace(geometry={"n_cells": 5})


def test_config_hash_stable_and_sensitive(tmp_path):
    # stable: test_config_hash_is_pinned pins the defaults' hash
    p = tmp_path / "c.ini"
    p.write_text("[geometry]\nside_m = 150\n")
    assert load_config(p).config_hash() != SimConfig().config_hash()
