"""Static network description: geometry, populations, radio and MAC constants.

Everything downstream (channel draws, contention analytics, the optimizer and
the frame simulator) consumes a validated, immutable Scenario.  dBm values are
converted to linear watts once at load time; all internal math is linear.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class RadioParams:
    """PHY-level constants shared by every link.

    Per-subchannel bandwidth is ``bandwidth_total_hz / num_subchannels``.
    Path-loss exponents follow the usual LoS/NLoS split (reflected links see
    LoS conditions, the direct user-BS link does not).
    """

    bandwidth_total_hz: float = 20e6
    num_subchannels: int = 2
    noise_power_dbm: float = -94.0
    tx_power_mobile_dbm: float = 10.0
    tx_power_budget_static_dbm: float = 30.0
    rate_min_bps: float = 1e6
    pathloss_exp_los: float = 2.2
    pathloss_exp_nlos: float = 3.6
    rician_k_factor_db: float = 10.0
    pathloss_ref_db: float = -30.0  # power gain at 1 m reference distance
    carrier_hz: float = 3e9

    @property
    def subchannel_bw_hz(self) -> float:
        return self.bandwidth_total_hz / self.num_subchannels

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    @property
    def tx_power_mobile_w(self) -> float:
        return dbm_to_watts(self.tx_power_mobile_dbm)

    @property
    def p_max_w(self) -> float:
        return dbm_to_watts(self.tx_power_budget_static_dbm)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class DcfParams:
    """Contention-side timing constants.

    ``payload_time_s`` is the fixed on-air payload duration used by every
    contended transmission; ``data_slot_s`` is the scheduled-period slot.
    Control frames (RTS/CTS) are carried in bytes and convert to airtime at
    ``control_rate_bps`` (the classic 1 Mb/s basic rate unless overridden).
    """

    w_min: int = 15
    w_max: int = 960
    max_backoff_stage: int = 6
    rts_bytes: int = 24
    cts_bytes: int = 16
    sifs_s: float = 10e-6
    difs_s: float = 50e-6
    prop_delay_s: float = 1e-6
    payload_bytes: int = 500
    payload_time_s: float = 4e-3
    pilot_time_s: float = 1e-4
    data_slot_s: float = 4e-3
    control_rate_bps: float = 1e6
    slot_time_s: float = 20e-6


@dataclass(frozen=True)
class UserPopulation:
    """Existing users (with mobility flags) plus this frame's new arrivals.

    Ids 0..num_existing-1 are the existing users, in flag order; new mobile
    users take ids num_existing..num_existing+num_new_mobile-1.
    """

    num_existing: int
    num_new_mobile: int
    mobility_flags: tuple  # 1 = static, 0 = mobile, length num_existing
    positions: tuple  # (x, y, z) per user, length num_existing + num_new_mobile

    @property
    def num_total(self) -> int:
        return self.num_existing + self.num_new_mobile

    @property
    def num_static(self) -> int:
        return int(sum(self.mobility_flags))


@dataclass(frozen=True)
class RisInventory:
    """Surfaces, element counts, and the RIS-to-subchannel binding."""

    num_ris: int = 2
    elements_per_ris: int = 128
    positions: tuple = ((25.0, 50.0, 50.0), (50.0, 25.0, 50.0))
    subchannel_of_ris: tuple = (0, 1)

    @property
    def subchannels(self) -> tuple:
        """Sorted subchannels bonded to at least one surface: the ones that
        carry scheduled slots and contention (C_s of them)."""
        return tuple(sorted(set(self.subchannel_of_ris)))

    @property
    def surfaces_by_subchannel(self) -> tuple:
        """The ascending ids of the surfaces bonded to each of ``subchannels``."""
        return tuple(
            tuple(m for m, c in enumerate(self.subchannel_of_ris) if c == ch)
            for ch in self.subchannels
        )


@dataclass(frozen=True)
class ComputeModel:
    """Knobs for the computing-period duration and the complexity counters.

    ``kappa_s_per_op`` converts the optimizer's operation count into the
    frame's computing period t1.  The default is calibrated so t1 is about
    0.5% of the transmission period at the default 200-user scenario; larger
    values penalize centralized scheduling more heavily.

    ``l1`` is the one cap on the power/assignment sweeps of the joint
    optimization, and it enters the operation count.  ``l2`` and ``l3`` cap
    no loop: they are the paper's iteration constants of the centralized and
    distributed complexity counters (``centralized_ops`` and
    ``distributed_ops``) that ``optimize`` reports, and saved scenario files
    carry them, so they stay fields.
    """

    kappa_s_per_op: float = 1.6e-9
    l1: int = 4
    l2: int = 8
    l3: int = 4


@dataclass(frozen=True)
class Scenario:
    """Fully materialized run description; immutable after validation."""

    population: UserPopulation
    radio: RadioParams = field(default_factory=RadioParams)
    dcf: DcfParams = field(default_factory=DcfParams)
    ris: RisInventory = field(default_factory=RisInventory)
    compute: ComputeModel = field(default_factory=ComputeModel)
    seed: int = 1
    area_side_m: float = 50.0
    bs_position: tuple = (0.0, 0.0, 100.0)
    csi_best_channel: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:
        if self.ok:
            return "scenario valid"
        return "\n".join(self.violations)


def classify_users(pop: UserPopulation) -> tuple:
    """Partition user ids into (static, mobile) per the mobility flags.

    Mobile users are the non-static existing users followed by the new
    arrivals, which are appended with fresh ids after the existing block.
    """
    if len(pop.mobility_flags) != pop.num_existing:
        raise ValueError(
            "mobility_flags length %d != num_existing %d"
            % (len(pop.mobility_flags), pop.num_existing)
        )
    static_ids = [k for k, u in enumerate(pop.mobility_flags) if u == 1]
    mobile_ids = [k for k, u in enumerate(pop.mobility_flags) if u == 0]
    mobile_ids += list(range(pop.num_existing, pop.num_total))
    return static_ids, mobile_ids


def build_population(
    total_users: int,
    ratio: tuple = (5, 4, 1),
    area_side_m: float = 50.0,
    seed: int = 1,
    positions=None,
) -> UserPopulation:
    """Split a total user count into static / existing-mobile / new users.

    The split follows the static:mobile:new ratio with deterministic
    rounding (static and existing-mobile round to nearest, new users take
    the remainder).  Positions are sampled uniformly in the square at z=0
    when not given explicitly.
    """
    if total_users < 0:
        raise ValueError("total_users must be >= 0")
    rs, rm, rn = (float(x) for x in ratio)
    total_ratio = rs + rm + rn
    if total_ratio <= 0:
        raise ValueError("ratio must have a positive sum")
    n_static = int(round(total_users * rs / total_ratio))
    n_mobile = int(round(total_users * rm / total_ratio))
    n_new = total_users - n_static - n_mobile
    if n_new < 0:
        n_mobile += n_new
        n_new = 0
    num_existing = n_static + n_mobile
    flags = tuple([1] * n_static + [0] * n_mobile)
    if positions is None:
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0.0, area_side_m, size=(total_users, 2))
        positions = tuple((x, y, 0.0) for x, y in xy.tolist())
    else:
        positions = tuple(tuple(float(c) for c in p) for p in positions)
    return UserPopulation(
        num_existing=num_existing,
        num_new_mobile=n_new,
        mobility_flags=flags,
        positions=positions,
    )


def default_ris_positions(num_ris: int, area_side_m: float = 50.0) -> tuple:
    """Deterministic RIS placement: the two canonical edge-midpoint spots
    for M<=2, otherwise evenly spaced on a circle around the area center."""
    canonical = [
        (area_side_m / 2.0, area_side_m, area_side_m),
        (area_side_m, area_side_m / 2.0, area_side_m),
    ]
    if num_ris <= 2:
        return tuple(canonical[:num_ris])
    center = area_side_m / 2.0
    radius = area_side_m / 2.0
    out = []
    for m in range(num_ris):
        ang = 2.0 * math.pi * m / num_ris
        out.append(
            (
                center + radius * math.cos(ang),
                center + radius * math.sin(ang),
                area_side_m,
            )
        )
    return tuple(out)


def build_ris_inventory(
    num_ris: int = 2,
    elements_per_ris: int = 128,
    num_subchannels: int = 2,
    area_side_m: float = 50.0,
    positions=None,
) -> RisInventory:
    if positions is None:
        positions = default_ris_positions(num_ris, area_side_m)
    else:
        positions = tuple(tuple(float(c) for c in p) for p in positions)
    subchannels = tuple(m % num_subchannels for m in range(num_ris))
    return RisInventory(
        num_ris=num_ris,
        elements_per_ris=elements_per_ris,
        positions=positions,
        subchannel_of_ris=subchannels,
    )


def with_per_user_static_budget(radio: RadioParams, num_static: int) -> RadioParams:
    """Provision the static power budget at the per-user dissipation level
    (the mobile TX power), so per-user power stays put as populations sweep."""
    budget = radio.tx_power_mobile_dbm + 10.0 * math.log10(max(num_static, 1))
    return replace(radio, tx_power_budget_static_dbm=budget)


def default_scenario(
    total_users: int = 200,
    ratio: tuple = (5, 4, 1),
    num_ris: int = 2,
    elements_per_ris: int = 128,
    seed: int = 1,
    **overrides,
) -> Scenario:
    """The reference 50x50 m network: 2 RISs of 128 elements, 2 subchannels,
    users split 5:4:1 into static / existing-mobile / new."""
    radio = overrides.pop("radio", None)
    dcf = overrides.pop("dcf", DcfParams())
    compute = overrides.pop("compute", ComputeModel())
    area = overrides.pop("area_side_m", 50.0)
    pop = build_population(total_users, ratio, area_side_m=area, seed=seed)
    if radio is None:
        radio = with_per_user_static_budget(RadioParams(), pop.num_static)
    ris = build_ris_inventory(
        num_ris, elements_per_ris, radio.num_subchannels, area_side_m=area
    )
    return Scenario(
        population=pop,
        radio=radio,
        dcf=dcf,
        ris=ris,
        compute=compute,
        seed=seed,
        area_side_m=area,
        **overrides,
    )


def _is_point(p) -> bool:
    """Whether ``p`` is three finite coordinates."""
    try:
        x, y, z = p
        return math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
    except (TypeError, ValueError):  # not three numbers
        return False


def validate_scenario(s: Scenario) -> ValidationReport:
    """Collect every violated invariant; an empty report means runnable."""
    rep = ValidationReport()
    r = s.radio
    if r.num_subchannels < 1:
        rep.add("num_subchannels >= 1 violated (C=%d)" % r.num_subchannels)
    if not (r.bandwidth_total_hz > 0):
        rep.add("bandwidth_total_hz > 0 violated")
    for name in (
        "noise_power_dbm",
        "tx_power_mobile_dbm",
        "tx_power_budget_static_dbm",
        "rate_min_bps",
    ):
        if not math.isfinite(getattr(r, name)):
            rep.add("%s must be finite" % name)

    d = s.dcf
    if d.w_min < 1:
        rep.add("w_min >= 1 violated (w_min=%d)" % d.w_min)
    if d.w_min > d.w_max:
        rep.add("w_min <= w_max violated (%d > %d)" % (d.w_min, d.w_max))
    if d.w_max * r.num_subchannels > 2**20:
        # a contention draw below w_max * C_s is off by at most its bound /
        # 2^32 of each value's probability (simulator's draw rule); the cap
        # keeps that at or below 2^-12, and a round's products inside int64
        rep.add(
            "w_max * num_subchannels <= 2^20 violated (%d * %d)"
            % (d.w_max, r.num_subchannels)
        )
    if d.w_max != d.w_min * 2**d.max_backoff_stage:
        rep.add(
            "w_max = w_min * 2^stage violated (%d != %d * 2^%d)"
            % (d.w_max, d.w_min, d.max_backoff_stage)
        )
    for name in (
        "sifs_s",
        "difs_s",
        "payload_time_s",
        "pilot_time_s",
        "data_slot_s",
        "slot_time_s",
    ):
        if not (getattr(d, name) > 0):
            rep.add("%s > 0 violated" % name)
    if not (d.prop_delay_s >= 0):
        rep.add("prop_delay_s >= 0 violated")

    pop = s.population
    for name in ("num_existing", "num_new_mobile"):
        if getattr(pop, name) < 0:
            rep.add("%s >= 0 violated (%d)" % (name, getattr(pop, name)))
    if pop.num_total < 1:
        rep.add("at least one user violated (no users to serve)")
    if len(pop.mobility_flags) != pop.num_existing:
        rep.add("mobility_flags length != num_existing")
    if any(u not in (0, 1) for u in pop.mobility_flags):
        rep.add("mobility_flags must be 0/1")
    if len(pop.positions) != pop.num_total:
        rep.add(
            "positions length %d != total users %d"
            % (len(pop.positions), pop.num_total)
        )
    for k, p in enumerate(pop.positions):
        if not _is_point(p):
            rep.add("user %d position is not three finite coordinates" % k)
            break
        if not (0.0 <= p[0] <= s.area_side_m and 0.0 <= p[1] <= s.area_side_m):
            rep.add("user %d position outside the configured area" % k)
            break
    if not _is_point(s.bs_position):
        rep.add("bs_position is not three finite coordinates")

    ris = s.ris
    if ris.num_ris < 1:
        rep.add("num_ris >= 1 violated")
    if ris.elements_per_ris < 1:
        rep.add("elements_per_ris >= 1 violated (N=%d)" % ris.elements_per_ris)
    if len(ris.positions) != ris.num_ris:
        rep.add("ris positions length != num_ris")
    bad = [m for m, p in enumerate(ris.positions) if not _is_point(p)]
    if bad:
        rep.add("surface %d position is not three finite coordinates" % bad[0])
    if len(ris.subchannel_of_ris) != ris.num_ris:
        rep.add("subchannel_of_ris length != num_ris")
    elif any(not (0 <= c < r.num_subchannels) for c in ris.subchannel_of_ris):
        rep.add("subchannel_of_ris entries must index a subchannel")

    c = s.compute
    if not (c.kappa_s_per_op >= 0):
        rep.add("kappa_s_per_op >= 0 violated")
    if min(c.l1, c.l2, c.l3) < 1:
        rep.add("iteration caps l1/l2/l3 >= 1 violated")
    return rep


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(s.to_dict(), indent=2, sort_keys=True)


def _points(entries) -> tuple:
    """Positions as tuples; an entry that is not a list is kept as it is,
    for validate_scenario to reject."""
    return tuple(tuple(p) if isinstance(p, (list, tuple)) else p for p in entries)


def scenario_from_dict(d: dict) -> Scenario:
    pop = UserPopulation(
        num_existing=d["population"]["num_existing"],
        num_new_mobile=d["population"]["num_new_mobile"],
        mobility_flags=tuple(d["population"]["mobility_flags"]),
        positions=_points(d["population"]["positions"]),
    )
    radio = RadioParams(**d.get("radio", {}))
    dcf = DcfParams(**d.get("dcf", {}))
    ris_d = dict(d.get("ris", {}))
    if "positions" in ris_d:
        ris_d["positions"] = _points(ris_d["positions"])
    if "subchannel_of_ris" in ris_d:
        ris_d["subchannel_of_ris"] = tuple(ris_d["subchannel_of_ris"])
    ris = RisInventory(**ris_d)
    compute = ComputeModel(**d.get("compute", {}))
    return Scenario(
        population=pop,
        radio=radio,
        dcf=dcf,
        ris=ris,
        compute=compute,
        seed=d.get("seed", 1),
        area_side_m=d.get("area_side_m", 50.0),
        bs_position=tuple(d.get("bs_position", (0.0, 0.0, 100.0))),
        csi_best_channel=d.get("csi_best_channel", False),
    )


def load_scenario(path: str, seed_override=None) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    if seed_override is not None:
        d["seed"] = int(seed_override)
    s = scenario_from_dict(d)
    if len(s.population.positions) == 0 and s.population.num_total > 0:
        # draw only the positions: the file's class mix stays
        drawn = build_population(
            s.population.num_total,
            seed=s.seed,
            area_side_m=s.area_side_m,
        )
        s = replace(s, population=replace(s.population, positions=drawn.positions))
    return s


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scenario_to_json(s))


def advance_frame(pop: UserPopulation, area_side_m: float, seed: int) -> UserPopulation:
    """Roll the population into the next frame: this frame's new arrivals
    become existing mobile users and a fresh batch of the same size joins."""
    flags = tuple(list(pop.mobility_flags) + [0] * pop.num_new_mobile)
    num_existing = pop.num_total
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, area_side_m, size=(pop.num_new_mobile, 2))
    new_positions = tuple((float(x), float(y), 0.0) for x, y in xy)
    return UserPopulation(
        num_existing=num_existing,
        num_new_mobile=pop.num_new_mobile,
        mobility_flags=flags,
        positions=tuple(pop.positions) + new_positions,
    )
