"""Key=value configuration with strict validation and simulation defaults.

Defaults follow the reference system parameters (28 GHz pathloss
model, 1.08 MHz bandwidth, -171 dBm/Hz noise density, 200 m inter-cell
distance, length-839 ZC preamble). Values marked [non-paper default]
in the docs have no published counterpart and were chosen to put the
protocol in its alignment-limited operating regime.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from pathlib import Path
from typing import NamedTuple

from .antenna import make_codebook, make_pattern, BeamCodebook
from .channel import pathloss
from . import preamble
from .preamble import ZcSequence, false_alarm_threshold, generate_zc, is_prime


class ConfigError(Exception):
    """A configuration file failed validation."""


class GeometryConfig(NamedTuple):
    n_sc: int = 3
    side_m: float = 200.0


class AntennaConfig(NamedTuple):
    n_tx: int = 8   # UE codebook size (4 and 8 in the reduction experiments)
    n_rx: int = 8   # [non-paper default]
    ue_phi_3db_deg: float | None = None  # None -> 360/n_tx
    sc_phi_3db_deg: float | None = None  # None -> 360/n_rx


class ChannelConfig(NamedTuple):
    p_ue_dbm: float = -14.0  # [non-paper default]
    noise_density_dbm_hz: float = -171.0
    bandwidth_hz: float = 1.08e6
    p_blk: float = 0.0  # blocking off for the protocol runs [non-paper default]
    nlos_excess_mean_db: float = 26.0  # [non-paper default]


class PreambleConfig(NamedTuple):
    n_zc: int = 839


class DetectionSettings(NamedTuple):
    mode: str = "miss"  # "miss" or "fa"
    target: float = 0.01
    reference_distance_m: float = 200.0
    calibration_margin_db: float = 10.0  # [non-paper default]
    calibration_trials: int = 10_000
    reference_p_ue_dbm: float | None = None  # None -> p_ue_dbm, see reference_rx_dbm


class ProtocolConfig(NamedTuple):
    t_ra_s: float = 1e-3
    backhaul_latency_s: float = 0.0


class ExperimentConfig(NamedTuple):
    trials: int = 2000
    master_seed: int = 1
    p_los_trials: int = 10_000
    p_los_cluster_sizes: tuple[int, ...] = (4, 6, 8, 10, 12, 14, 16, 18, 20, 22)
    p_los_p_blk: tuple[float, ...] = (0.1, 0.5)
    power_grid_dbm: tuple[float, ...] = (-14.0, -10.0, -6.0, -2.0, 2.0, 6.0)
    pmiss_grid: tuple[float, ...] = (0.001, 0.01, 0.05, 0.1, 0.2)
    cluster_grid: tuple[int, ...] = (1, 3, 5, 7, 9)
    n_tx_values: tuple[int, ...] = (4, 8)


class OutputConfig(NamedTuple):
    dir: str = "out"


class SimConfig(NamedTuple):
    geometry: GeometryConfig = GeometryConfig()
    antenna: AntennaConfig = AntennaConfig()
    channel: ChannelConfig = ChannelConfig()
    preamble: PreambleConfig = PreambleConfig()
    detection: DetectionSettings = DetectionSettings()
    protocol: ProtocolConfig = ProtocolConfig()
    experiment: ExperimentConfig = ExperimentConfig()
    output: OutputConfig = OutputConfig()

    def replace(self, **sections: dict) -> SimConfig:
        """This config with each ``section``'s given fields replaced, e.g.
        ``cfg.replace(geometry={"n_sc": 5})``; validates nothing. An unknown
        section raises AttributeError, an unknown key ValueError."""
        return self._replace(**{name: getattr(self, name)._replace(**fields)
                                for name, fields in sections.items()})

    # -- derived helpers -------------------------------------------------

    def link_params(self) -> ChannelConfig:
        """The channel section. Kept only because the benchmark harness
        calls ``noise_power(cfg.link_params())``."""
        return self.channel

    def sequence(self) -> ZcSequence:
        # only the length reaches a result (the peak statistics), so the
        # root is fixed
        return generate_zc(1, self.preamble.n_zc)

    def ue_codebook(self) -> BeamCodebook:
        return make_codebook(self.antenna.n_tx, _radians(self.antenna.ue_phi_3db_deg))

    def sc_codebook(self) -> BeamCodebook:
        return make_codebook(self.antenna.n_rx, _radians(self.antenna.sc_phi_3db_deg))

    def reference_rx_dbm(self) -> float:
        """Nominal aligned link budget the miss-mode threshold calibrates on.

        Uses the cell pattern's peak gain on both ends so the reference
        does not move with the UE codebook, a fixed reference UE power so
        it does not move with a transmit-power sweep, and a margin that
        admits imperfect intra-beam alignment.
        """
        det = self.detection
        p_ue = (self.channel.p_ue_dbm if det.reference_p_ue_dbm is None
                else det.reference_p_ue_dbm)
        g0 = self.sc_codebook().pattern.g0
        return (p_ue + 2.0 * g0 - pathloss(det.reference_distance_m)
                - det.calibration_margin_db)

    def threshold(self, noise_dbm: float, seq: ZcSequence, seed=None,
                  target: float | None = None) -> float:
        """gamma_ra for the configured mode: closed form for a false-alarm
        target, Monte Carlo on the reference link for a miss target, which
        needs ``seed``: without it the calibration would draw from OS
        entropy and the threshold would not rerun."""
        det = self.detection
        t = det.target if target is None else target
        if det.mode == "fa":
            return false_alarm_threshold(t, noise_dbm, seq.n_zc)
        if seed is None:
            raise ValueError("a miss-mode threshold needs a calibration seed")
        return preamble.miss_threshold(t, self.reference_rx_dbm(), noise_dbm, seq,
                                       trials=det.calibration_trials, seed=seed)

    def config_hash(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:12]


def _radians(deg: float | None) -> float | None:
    # None keeps make_codebook's default beamwidth, 360/n
    return None if deg is None else math.radians(deg)


# type of a field's default -> parser of one value; None stands for a float
_PARSERS = {int: int, float: float, str: str, type(None): float}


def _parser(default):
    """(parser of one value, whether the value is a list) of the field
    whose default is ``default``: a tuple's values parse as its first does."""
    if isinstance(default, tuple):
        return _PARSERS[type(default[0])], True
    return _PARSERS[type(default)], False


def _parse_value(section: str, key: str, raw: str, default):
    parse, is_list = _parser(default)
    raw = raw.strip()
    try:
        values = (tuple(parse(v.strip()) for v in raw.split(",") if v.strip())
                  if is_list else (parse(raw),))
    except ValueError as exc:
        kind = f"a list of {parse.__name__}" if is_list else parse.__name__
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from exc
    if not values:
        raise ConfigError(f"[{section}] {key}: empty list")
    if parse is not str and not all(map(math.isfinite, values)):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not finite")
    return values if is_list else values[0]


def _validate(cfg: SimConfig) -> SimConfig:
    g, a, ch, pre, det = cfg.geometry, cfg.antenna, cfg.channel, cfg.preamble, cfg.detection
    # the coordinated scheme needs the three base cells
    if g.n_sc < 3:
        raise ConfigError("[geometry] n_sc: must be >= 3")
    if g.side_m <= 0:
        raise ConfigError("[geometry] side_m: must be positive")
    if a.n_tx < 1 or a.n_rx < 1:
        raise ConfigError("[antenna] codebook sizes must be >= 1")
    # the default beamwidth 360/n reaches 180 degrees below three beams
    if a.ue_phi_3db_deg is None and a.n_tx < 3:
        raise ConfigError("[antenna] n_tx: needs >= 3 beams unless "
                          "ue_phi_3db_deg is set")
    if a.sc_phi_3db_deg is None and a.n_rx < 3:
        raise ConfigError("[antenna] n_rx: needs >= 3 beams unless "
                          "sc_phi_3db_deg is set")
    for label, deg in (("ue_phi_3db_deg", a.ue_phi_3db_deg),
                       ("sc_phi_3db_deg", a.sc_phi_3db_deg)):
        if deg is None:
            continue
        if not 0.0 < deg < 180.0:
            raise ConfigError(f"[antenna] {label}: must lie in (0, 180)")
        # the peak gain's closed form overflows below about 1e-152 degrees
        try:
            g0 = make_pattern(math.radians(deg)).g0
        except (OverflowError, ValueError):
            g0 = math.inf
        if not math.isfinite(g0):
            raise ConfigError(f"[antenna] {label}: {deg} is too narrow, "
                              "its peak gain overflows")
    if ch.bandwidth_hz <= 0:
        raise ConfigError("[channel] bandwidth_hz: must be positive")
    if not 0.0 <= ch.p_blk <= 1.0:
        raise ConfigError("[channel] p_blk: probability out of range")
    if ch.nlos_excess_mean_db < 0:
        raise ConfigError("[channel] nlos_excess_mean_db: must be >= 0")
    if not is_prime(pre.n_zc):
        raise ConfigError(f"[preamble] n_zc: {pre.n_zc} is not prime")
    if det.mode not in ("miss", "fa"):
        raise ConfigError("[detection] mode: must be 'miss' or 'fa'")
    if not 0.0 < det.target < 1.0:
        raise ConfigError("[detection] target: probability out of range")
    if det.reference_distance_m < 1.0:
        raise ConfigError("[detection] reference_distance_m: must be >= 1")
    if det.calibration_trials < 100:
        raise ConfigError("[detection] calibration_trials: must be >= 100")
    if cfg.protocol.t_ra_s <= 0:
        raise ConfigError("[protocol] t_ra_s: must be positive")
    if cfg.protocol.backhaul_latency_s < 0:
        raise ConfigError("[protocol] backhaul_latency_s: must be >= 0")
    exp = cfg.experiment
    if exp.trials < 1 or exp.p_los_trials < 1:
        raise ConfigError("[experiment] trial counts must be >= 1")
    if exp.master_seed < 0:
        raise ConfigError("[experiment] master_seed: must be >= 0")
    if any(p <= 0 or p >= 1 for p in exp.pmiss_grid):
        raise ConfigError("[experiment] pmiss_grid: probabilities out of range")
    if any(not 0 <= p <= 1 for p in exp.p_los_p_blk):
        raise ConfigError("[experiment] p_los_p_blk: probabilities out of range")
    if any(n < 3 for n in exp.p_los_cluster_sizes):
        raise ConfigError("[experiment] p_los_cluster_sizes: sizes must be >= 3")
    if any(n < 1 or n == 2 for n in exp.cluster_grid):
        raise ConfigError("[experiment] cluster_grid: sizes must be 1 "
                          "(the single-cell baseline) or >= 3")
    if 1 not in exp.cluster_grid:
        raise ConfigError("[experiment] cluster_grid: must include 1, the "
                          "single-cell baseline every size is normalized by")
    if len(set(exp.cluster_grid)) != len(exp.cluster_grid):
        raise ConfigError("[experiment] cluster_grid: sizes must not repeat")
    if any(n < 2 for n in exp.n_tx_values):
        raise ConfigError("[experiment] n_tx_values: need at least 2 beams")
    if a.ue_phi_3db_deg is None and any(n < 3 for n in exp.n_tx_values):
        raise ConfigError("[experiment] n_tx_values: needs >= 3 beams unless "
                          "[antenna] ue_phi_3db_deg is set")
    return cfg


def load_config(path: str | Path | None = None) -> SimConfig:
    """Parse and validate a config file; None or an empty file gives defaults."""
    cfg = SimConfig()
    if path is None:
        return _validate(cfg)
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # no header can spell a newline, so [DEFAULT] is an ordinary section
    # (rejected below) rather than keys copied into every section
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",),
                                       default_section="\n")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    # every section is a SimConfig field; its keys are its class's fields,
    # each parsed as its default
    schema = {name: section._asdict() for name, section in cfg._asdict().items()}
    updates: dict[str, dict] = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}]")
        known = schema[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            updates.setdefault(section, {})[key] = _parse_value(
                section, key, raw, known[key])

    return _validate(cfg.replace(**updates))
