"""Correctness checks on the campaign CSVs, made apart from the program.

Each check either recomputes a column from the row's own values, tests a
property the method guarantees, or compares with a computation the
benchmark makes itself: the closed-form miss probability of a calibrated
threshold, and a vectorised P_LOS estimate with its own seed that ranks
cells by received power without any FFT. Model constants below are the
published ones (pathloss, antenna pattern, NLOS floor); everything else is
read from the config the campaign ran with.

A one-sided bound from an acceptance criterion widens by Z standard errors
of the row itself when the campaign ran fewer trials than that criterion;
at the criterion's own trial count it applies as stated.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

Z = 4.0
STAMP = re.compile(r"# config=([0-9a-f]{12}) seed=(\d+)\Z")

PATHLOSS_INTERCEPT_DB, PATHLOSS_SLOPE = 61.4, 21.0
NLOS_FLOOR_DB = 1.55
MAIN_LOBE_FACTOR = 2.6

# acceptance criteria: trial count, and the bound at that count
PMISS_FULL_TRIALS = 2000
PMISS_BANDS = {4: (12.0, 32.0), 8: (8.0, 28.0)}       # reduction, percent
CLUSTER_FULL_TRIALS = 1500
CLUSTER_N3_CEILING = 0.8
PLOS_FULL_TRIALS = 10_000
PLOS_FLOORS = {(12, 0.1): 0.88, (22, 0.5): 0.65}
PLOS_REFERENCE_TRIALS, PLOS_REFERENCE_CHUNK = 100_000, 20_000


@dataclass
class Verdict:
    """Failed checks per CSV row, plus problems with the output as a whole."""

    row_failures: dict[int, list[str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    checks: int = 0

    def check(self, ok: bool, row: int | None, message: str) -> None:
        self.checks += 1
        if ok:
            return
        if row is None:
            self.problems.append(message)
        else:
            self.row_failures.setdefault(row, []).append(message)


@dataclass(frozen=True)
class Table:
    config_hash: str
    seed: int
    rows: list[dict[str, float]]


def parse_csv(text: str, verdict: Verdict) -> Table | None:
    lines = text.splitlines()
    m = STAMP.match(lines[0]) if lines else None
    verdict.check(m is not None, None, "missing '# config=<hash> seed=<n>' stamp")
    if m is None:
        return None
    rows = [{k: float(v) for k, v in r.items()}
            for r in csv.DictReader(io.StringIO("\n".join(lines[1:])))]
    return Table(m.group(1), int(m.group(2)), rows)


def _close(a: float, b: float, rel: float = 1e-8) -> bool:
    # CSV floats carry 10 significant digits
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _whole(x: float) -> bool:
    return abs(x - round(x)) <= 1e-6 * max(abs(x), 1.0)


def check_common(table: Table, cfg, master_seed: int, trials: int,
                 verdict: Verdict) -> bool:
    """Stamp, trial count and finite values; False if any value is not finite."""
    verdict.check(table.seed == master_seed, None,
                  f"stamp seed {table.seed} != campaign seed {master_seed}")
    verdict.check(table.config_hash == cfg.config_hash(), None,
                  f"stamp config {table.config_hash} != {cfg.config_hash()}")
    finite = True
    for i, row in enumerate(table.rows):
        ok = all(math.isfinite(v) for v in row.values())
        finite &= ok
        verdict.check(ok, i, f"non-finite value in row {row}")
        verdict.check(row["trials"] == trials, i,
                      f"trials {row['trials']} != {trials}")
    return finite


def _widen(trials: int, full: int, se: float) -> float:
    return Z * se if trials < full else 0.0


# ---------------------------------------------------------------------------
# independent model: link budget, antenna pattern, noise
# ---------------------------------------------------------------------------

def _pathloss_db(d):
    return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE * np.log10(d)


def _peak_gain_db(phi_3db: float) -> float:
    return 20.0 * math.log10(1.6162 / math.sin(phi_3db / 2.0))


def _gain_db(offset, phi_3db: float):
    side_lobe = -0.4111 * math.log(math.degrees(phi_3db)) - 10.579
    main = _peak_gain_db(phi_3db) - 3.01 * (2.0 * offset / phi_3db) ** 2
    return np.where(offset <= MAIN_LOBE_FACTOR * phi_3db / 2.0, main, side_lobe)


def _nearest_beam_offset(azimuth, n_beams: int):
    """Angular offset to the closest of n evenly spaced beams from 0 rad."""
    spacing = 2.0 * math.pi / n_beams
    k = azimuth / spacing
    return np.abs(k - np.round(k)) * spacing


def _beamwidths(cfg) -> tuple[float, float]:
    a = cfg.antenna
    ue = (math.radians(a.ue_phi_3db_deg) if a.ue_phi_3db_deg is not None
          else 2.0 * math.pi / a.n_tx)
    sc = (math.radians(a.sc_phi_3db_deg) if a.sc_phi_3db_deg is not None
          else 2.0 * math.pi / a.n_rx)
    return ue, sc


def _noise_dbm(cfg) -> float:
    return cfg.channel.noise_density_dbm_hz + 10.0 * math.log10(cfg.channel.bandwidth_hz)


# ---------------------------------------------------------------------------
# pmiss-point
# ---------------------------------------------------------------------------

def miss_probability(gamma: float, rx_dbm: float, noise_dbm: float, n_zc: int) -> float:
    """P(PDP peak <= gamma) for an aligned link, in closed form.

    The signal lag is |a*N + sqrt(N*Pn)*g|^2 with g ~ CN(0,1): (N*Pn/2)
    times a noncentral chi-square with 2 degrees of freedom and
    noncentrality 2*a^2*N/Pn. The N-1 other lags are i.i.d. Exp(N*Pn).
    """
    a2, pn = 10.0 ** (rx_dbm / 10.0), 10.0 ** (noise_dbm / 10.0)
    f_signal = stats.ncx2.cdf(gamma / (n_zc * pn / 2.0), 2, 2.0 * a2 * n_zc / pn)
    f_noise = (-math.expm1(-gamma / (n_zc * pn))) ** (n_zc - 1)
    return float(f_signal * f_noise)


def reference_rx_dbm(cfg) -> float:
    """Aligned reference link of miss-mode calibration, from the model."""
    det = cfg.detection
    p_ue = (cfg.channel.p_ue_dbm if det.reference_p_ue_dbm is None
            else det.reference_p_ue_dbm)
    _, sc_phi = _beamwidths(cfg)
    return (p_ue + 2.0 * _peak_gain_db(sc_phi)
            - float(_pathloss_db(det.reference_distance_m))
            - det.calibration_margin_db)


def check_pmiss(table: Table, cfg, trials: int, gammas: list[float],
                verdict: Verdict) -> None:
    """Criterion 3 at P_miss = 0.01; `gammas` holds each point's threshold."""
    t_ra = cfg.protocol.t_ra_s
    verdict.check(sorted(int(r["n_tx"]) for r in table.rows) == sorted(PMISS_BANDS),
                  None, "rows do not cover n_tx = 4 and 8")
    n_cal = cfg.detection.calibration_trials
    for i, row in enumerate(table.rows):
        coord, exh, p_er = row["coord_ia_time_s"], row["exh_ia_time_s"], row["p_er_pct"]
        se = row["stderr_pct"]
        # absolute slack for the cancellation in coord - exh near 0 %
        verdict.check(math.isclose(p_er, (coord - exh) / exh * 100.0,
                                   rel_tol=1e-8, abs_tol=1e-6), i,
                      f"p_er_pct {p_er} is not (coord - exh)/exh of its own row")
        for name, t in (("coord", coord), ("exh", exh)):
            verdict.check(_whole(t * trials / t_ra), i,
                          f"{name} mean {t} is not a whole number of slots per trial")
        lo, hi = PMISS_BANDS.get(int(row["n_tx"]), (math.nan, math.nan))
        w = _widen(trials, PMISS_FULL_TRIALS, se)
        verdict.check(lo - w <= -p_er <= hi + w, i,
                      f"n_tx={int(row['n_tx'])}: reduction {-p_er:.2f}% outside "
                      f"[{lo - w:.2f}, {hi + w:.2f}]")
        verdict.check(p_er <= w, i,
                      f"coordinated mean {coord} above exhaustive {exh}")
        if i < len(gammas):
            p = row["p_miss"]
            achieved = miss_probability(gammas[i], reference_rx_dbm(cfg),
                                        _noise_dbm(cfg), cfg.preamble.n_zc)
            tol = Z * math.sqrt(p * (1.0 - p) / n_cal)
            verdict.check(abs(achieved - p) <= tol, i,
                          f"threshold {gammas[i]:.6g} gives P_miss {achieved:.5f}, "
                          f"target {p} +/- {tol:.5f}")


# ---------------------------------------------------------------------------
# cluster-sweep
# ---------------------------------------------------------------------------

def check_cluster(table: Table, cfg, trials: int, sizes: tuple[int, ...],
                  verdict: Verdict) -> None:
    """Criterion 5: normalisation, the 3-cell gain, and a non-increasing curve."""
    t_ra = cfg.protocol.t_ra_s
    got = [int(r["n_sc"]) for r in table.rows]
    verdict.check(got == list(sizes), None, f"cluster sizes {got} != {list(sizes)}")
    if got != list(sizes):
        return
    by = {int(r["n_sc"]): (i, r) for i, r in enumerate(table.rows)}
    base = by[1][1]["mean_ia_time_s"]
    for i, row in enumerate(table.rows):
        verdict.check(_whole(row["mean_ia_time_s"] * trials / t_ra), i,
                      f"mean {row['mean_ia_time_s']} is not a whole number of slots per trial")
        verdict.check(_close(row["norm_ia_time"], row["mean_ia_time_s"] / base), i,
                      f"norm_ia_time {row['norm_ia_time']} != mean / single-cell mean")
    i1, r1 = by[1]
    verdict.check(r1["norm_ia_time"] == 1.0, i1, f"norm at n_sc=1 is {r1['norm_ia_time']}")
    if 3 in by:
        i3, r3 = by[3]
        ceiling = CLUSTER_N3_CEILING + _widen(trials, CLUSTER_FULL_TRIALS, r3["stderr"])
        verdict.check(r3["norm_ia_time"] < ceiling, i3,
                      f"norm at n_sc=3 {r3['norm_ia_time']:.3f} >= {ceiling:.3f}")
    for a, b in zip(sizes, sizes[1:]):
        (_, ra), (ib, rb) = by[a], by[b]
        slack = 2.0 * math.hypot(ra["stderr"], rb["stderr"])
        verdict.check(rb["norm_ia_time"] <= ra["norm_ia_time"] + slack, ib,
                      f"norm rises from n_sc={a} ({ra['norm_ia_time']:.3f}) to "
                      f"n_sc={b} ({rb['norm_ia_time']:.3f}) by more than 2 SE")


# ---------------------------------------------------------------------------
# p-los
# ---------------------------------------------------------------------------

def p_los_reference(cfg, n_sc: int, p_blk: float, seed) -> tuple[float, int]:
    """(P_LOS, trials) from a vectorised model that ranks cells by rx power.

    The noiseless PDP peak of a cell is N^2 * P_rx, so the three largest
    peaks are the three largest received powers.
    """
    rng = np.random.default_rng(seed)
    side = cfg.geometry.side_m
    ue_phi, sc_phi = _beamwidths(cfg)
    tri = np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3.0) / 2.0]])
    center = np.array([side / 2.0, side / (2.0 * math.sqrt(3.0))])
    radius = side / math.sqrt(3.0)
    wins = 0
    for _ in range(PLOS_REFERENCE_TRIALS // PLOS_REFERENCE_CHUNK):
        t, k = PLOS_REFERENCE_CHUNK, n_sc - 3
        r = radius * np.sqrt(rng.uniform(size=(t, k)))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(t, k))
        extra = center + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
        cells = np.concatenate([np.broadcast_to(tri, (t, 3, 2)), extra], axis=1)
        u, v = rng.uniform(size=(2, t))
        flip = u + v > 1.0
        u, v = np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)
        ue = tri[0] + u[:, None] * (tri[1] - tri[0]) + v[:, None] * (tri[2] - tri[0])

        blocked = rng.uniform(size=(t, n_sc)) < p_blk
        refl_bearing = rng.uniform(0.0, 2.0 * math.pi, size=(t, n_sc))
        excess = rng.exponential(cfg.channel.nlos_excess_mean_db, size=(t, n_sc))

        to_cell = cells - ue[:, None, :]
        dist = np.hypot(to_cell[..., 0], to_cell[..., 1])
        # a blocked link leaves the UE towards a reflector half-way out
        refl = ue[:, None, :] + 0.5 * dist[..., None] * np.stack(
            [np.cos(refl_bearing), np.sin(refl_bearing)], axis=-1)
        cell_to_refl = refl - cells
        depart = np.where(blocked, refl_bearing,
                          np.arctan2(to_cell[..., 1], to_cell[..., 0]))
        arrive = np.where(blocked,
                          np.arctan2(cell_to_refl[..., 1], cell_to_refl[..., 0]),
                          np.arctan2(-to_cell[..., 1], -to_cell[..., 0]))
        rx_dbm = (cfg.channel.p_ue_dbm
                  + _gain_db(_nearest_beam_offset(depart, cfg.antenna.n_tx), ue_phi)
                  + _gain_db(_nearest_beam_offset(arrive, cfg.antenna.n_rx), sc_phi)
                  - _pathloss_db(np.maximum(dist, 1.0))
                  - np.where(blocked, NLOS_FLOOR_DB + excess, 0.0))
        top3 = np.argsort(-rx_dbm, axis=1, kind="stable")[:, :3]
        wins += int(np.sum(~np.take_along_axis(blocked, top3, axis=1).any(axis=1)))
    n = PLOS_REFERENCE_CHUNK * (PLOS_REFERENCE_TRIALS // PLOS_REFERENCE_CHUNK)
    return wins / n, n


def check_p_los(table: Table, trials: int, reference: dict, verdict: Verdict) -> None:
    """Criteria 1 and 2, and agreement with the benchmark's own estimate.

    `reference` maps (n_sc, p_blk) to (P_LOS, trials) from p_los_reference.
    The agreement test uses the binomial standard errors at the reference
    probability, which stay positive when a short run scores 0 or 1.
    """
    for i, row in enumerate(table.rows):
        key = (int(row["n_sc"]), row["p_blk"])
        p, se = row["p_los"], row["stderr"]
        verdict.check(_whole(p * trials), i, f"p_los {p} is not wins / {trials}")
        verdict.check(0.0 <= p <= 1.0, i, f"p_los {p} is not a probability")
        verdict.check(_close(se, math.sqrt(max(p * (1.0 - p), 0.0) / trials), 1e-7), i,
                      f"stderr {se} is not the binomial SE of {p}")
        if key in PLOS_FLOORS:
            floor = PLOS_FLOORS[key] - _widen(trials, PLOS_FULL_TRIALS, se)
            verdict.check(p >= floor, i, f"{key}: P_LOS {p:.4f} < {floor:.4f}")
        verdict.check(key in reference, i, f"no reference estimate for {key}")
        if key in reference:
            p_ref, n_ref = reference[key]
            var = p_ref * (1.0 - p_ref)
            tol = Z * math.sqrt(var / trials + var / n_ref)
            verdict.check(abs(p - p_ref) <= tol, i,
                          f"{key}: P_LOS {p:.4f} vs reference {p_ref:.4f} +/- {tol:.4f}")
