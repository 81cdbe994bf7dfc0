"""Static network description: geometry, populations, radio and MAC constants.

Everything downstream (channel draws, contention analytics, the optimizer and
the frame simulator) consumes a validated, immutable Scenario.  dBm values are
converted to linear watts once at load time; all internal math is linear.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0
# the path-loss model's validity floor: every link is at least this long
MIN_LINK_DISTANCE_M = 0.1


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# a declared range's comparisons, by the sign its messages print
_HOLDS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def _ranged(default=MISSING, *, low=None, high=None, above=None):
    """A field whose value must be >= ``low`` and <= ``high``, where given,
    or > ``above``; in an int tuple, each entry.  validate_scenario checks
    it, and a field of no declared range takes any value of its type."""
    bounds = ((">=", low), ("<=", high), (">", above))
    return field(default=default,
                 metadata={"range": tuple((op, b) for op, b in bounds if b is not None)})


@dataclass(frozen=True)
class RadioParams:
    """PHY-level constants shared by every link.

    Per-subchannel bandwidth is ``bandwidth_total_hz / num_subchannels``.
    Path-loss exponents follow the usual LoS/NLoS split (reflected links see
    LoS conditions, the direct user-BS link does not).
    """

    bandwidth_total_hz: float = _ranged(20e6, above=0)
    num_subchannels: int = _ranged(2, low=1)
    noise_power_dbm: float = -94.0
    tx_power_mobile_dbm: float = 10.0
    tx_power_budget_static_dbm: float = 30.0
    rate_min_bps: float = 1e6
    pathloss_exp_los: float = 2.2
    pathloss_exp_nlos: float = 3.6
    rician_k_factor_db: float = 10.0
    pathloss_ref_db: float = -30.0  # power gain at 1 m reference distance
    carrier_hz: float = _ranged(3e9, above=0)

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

    w_min: int = _ranged(15, low=1)
    # past 20, w_max * C passes 2^20 at any w_min and C (validate_scenario)
    max_backoff_stage: int = _ranged(6, low=0, high=20)
    rts_bytes: int = _ranged(24, low=0)
    cts_bytes: int = _ranged(16, low=0)
    sifs_s: float = _ranged(10e-6, above=0)
    difs_s: float = _ranged(50e-6, above=0)
    prop_delay_s: float = _ranged(1e-6, low=0)
    payload_time_s: float = _ranged(4e-3, above=0)
    pilot_time_s: float = _ranged(1e-4, above=0)
    data_slot_s: float = _ranged(4e-3, above=0)
    control_rate_bps: float = _ranged(1e6, above=0)
    slot_time_s: float = _ranged(20e-6, above=0)

    @property
    def w_max(self) -> int:
        """The last stage's window, derived and read-only: each collision
        doubles a contender's window, from w_min up to this one."""
        return self.w_min * 2**self.max_backoff_stage


CLASS_STATIC = 0
CLASS_MOBILE = 1
CLASS_NEW = 2


@dataclass(frozen=True)
class UserPopulation:
    """Existing users (with mobility flags) plus this frame's new arrivals.

    Ids 0..num_existing-1 are the existing users, in flag order; new mobile
    users take ids num_existing..num_existing+num_new_mobile-1.
    """

    num_existing: int = _ranged(low=0)
    num_new_mobile: int = _ranged(low=0)
    mobility_flags: tuple[int, ...] = _ranged(low=0, high=1)  # 1 = static, 0 = mobile
    positions: tuple  # (x, y, z) per user, length num_existing + num_new_mobile

    @property
    def num_total(self) -> int:
        return self.num_existing + self.num_new_mobile

    @property
    def num_static(self) -> int:
        return int(sum(self.mobility_flags))

    @cached_property
    def classes(self) -> np.ndarray:
        """Each user's class by id, built once per population and read-only:
        an existing user is static (flag 1) or mobile, and the new
        arrivals, which take the ids after the existing block, are new.  It
        is not a field, so equality, to_dict and scenario files leave it
        out; a pickle carries it, and dataclasses.replace builds a new
        population that rebuilds it."""
        if len(self.mobility_flags) != self.num_existing:
            raise ValueError(
                "mobility_flags length %d != num_existing %d"
                % (len(self.mobility_flags), self.num_existing)
            )
        cls = np.full(self.num_total, CLASS_NEW, dtype=int)
        static = np.array(self.mobility_flags) == 1
        cls[: static.size] = np.where(static, CLASS_STATIC, CLASS_MOBILE)
        cls.flags.writeable = False
        return cls

    def __setstate__(self, state: dict) -> None:
        # a numpy pickle below protocol 5 loads a writeable array
        self.__dict__.update(state)
        if "classes" in state:
            state["classes"].flags.writeable = False


@dataclass(frozen=True)
class RisInventory:
    """Surfaces, element counts, and the RIS-to-subchannel binding."""

    num_ris: int = _ranged(2, low=1)
    elements_per_ris: int = _ranged(128, low=1)
    positions: tuple = ((25.0, 50.0, 50.0), (50.0, 25.0, 50.0))
    subchannel_of_ris: tuple[int, ...] = (0, 1)

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

    kappa_s_per_op: float = _ranged(1.6e-9, low=0)
    l1: int = _ranged(4, low=1)
    l2: int = _ranged(8, low=1)
    l3: int = _ranged(4, low=1)


@dataclass(frozen=True)
class Scenario:
    """Fully materialized run description; immutable after validation."""

    population: UserPopulation
    radio: RadioParams = field(default_factory=RadioParams)
    dcf: DcfParams = field(default_factory=DcfParams)
    ris: RisInventory = field(default_factory=RisInventory)
    compute: ComputeModel = field(default_factory=ComputeModel)
    seed: int = _ranged(1, low=0)
    area_side_m: float = _ranged(50.0, above=0)
    bs_position: tuple = (0.0, 0.0, 100.0)
    csi_best_channel: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


# each section's dataclass by its annotation in Scenario
_SECTIONS = {
    cls.__name__: cls
    for cls in (UserPopulation, RadioParams, DcfParams, RisInventory, ComputeModel)
}


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
    """Partition user ids into (static, mobile), two ascending int arrays:
    mobile users are the existing mobile users and the new arrivals."""
    is_static = pop.classes == CLASS_STATIC
    return np.flatnonzero(is_static), np.flatnonzero(~is_static)


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
    except (TypeError, ValueError, OverflowError):  # not three finite numbers
        return False


# the one type rule, by field annotation: what a value must be, and the test
_TYPE_RULE = {
    "int": ("an integer", lambda v: type(v) is int),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "float": (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
    ),
    "tuple": ("a list", lambda v: isinstance(v, tuple)),
    "tuple[int, ...]": ("a list of integers",
                        lambda v: isinstance(v, tuple) and all(type(u) is int for u in v)),
}


def _field_faults(obj, types: list, ranges: list, prefix: str = "") -> tuple:
    """(types, ranges), extended with the faults of the fields of ``obj``
    and of its sections, one line each naming its key path.  The type rule
    reads each field's annotation (a bool is no int or float); a value of
    its type is then checked against its field's declared range, and an int
    tuple's first entry out of range is its fault."""
    for f in fields(obj):
        value, key = getattr(obj, f.name), prefix + f.name
        if f.type in _SECTIONS:
            _field_faults(value, types, ranges, key + ".")
        elif not _TYPE_RULE[f.type][1](value):
            types.append("%s must be %s (got %.40r)" % (key, _TYPE_RULE[f.type][0], value))
        elif "range" in f.metadata:
            entries = enumerate(value) if isinstance(value, tuple) else [(None, value)]
            ranges += [
                "%s %s %s violated (%r)" % (key if i is None else "%s[%d]" % (key, i), op, bound, v)
                for i, v in entries for op, bound in f.metadata["range"] if not _HOLDS[op](v, bound)
            ][:1]
    return types, ranges


def link_distances(s: Scenario) -> tuple:
    """The user-BS (U,), user-RIS (U, M) and RIS-BS (M,) distances in m."""
    users = np.asarray(s.population.positions, dtype=float).reshape(-1, 3)
    bs = np.asarray(s.bs_position, dtype=float)
    surfaces = np.asarray(s.ris.positions, dtype=float).reshape(-1, 3)
    return (
        np.linalg.norm(users - bs, axis=-1),
        np.linalg.norm(users[:, None, :] - surfaces[None, :, :], axis=-1),
        np.linalg.norm(surfaces - bs, axis=-1),
    )


def short_link(distances: tuple) -> str:
    """The first kind of link_distances with one under MIN_LINK_DISTANCE_M,
    named with its shortest; "" when every link clears the floor."""
    for name, d in zip(("user-BS", "user-RIS", "RIS-BS"), distances):
        if d.size and float(np.min(d)) < MIN_LINK_DISTANCE_M:
            return "degenerate geometry: %s distance %.3g m below %.1f m" % (
                name, float(np.min(d)), MIN_LINK_DISTANCE_M)
    return ""


def validate_scenario(s: Scenario) -> ValidationReport:
    """Collect every violated invariant; an empty report means runnable.
    Type faults are reported alone, since the range checks compare numbers,
    and range faults alone, since the checks across fields read in-range
    values (2^max_backoff_stage is built only for a stage up to 20)."""
    types, ranges = _field_faults(s, [], [])
    if types or ranges:
        return ValidationReport(types or ranges)
    rep = ValidationReport()
    r, d, pop, ris = s.radio, s.dcf, s.population, s.ris
    if d.w_max * r.num_subchannels > 2**20:
        # a contention draw below w_max * C_s is off by at most its bound /
        # 2^32 of each value's probability (simulator's draw rule); the cap
        # keeps that at or below 2^-12, and a round's products inside int64
        rep.add(
            "w_max * num_subchannels <= 2^20 violated (%d * %d)"
            % (d.w_max, r.num_subchannels)
        )

    if pop.num_total < 1:
        rep.add("at least one user violated (no users to serve)")
    if len(pop.mobility_flags) != pop.num_existing:
        rep.add("mobility_flags length != num_existing")
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

    if len(ris.positions) != ris.num_ris:
        rep.add("ris positions length != num_ris")
    bad = [m for m, p in enumerate(ris.positions) if not _is_point(p)]
    if bad:
        rep.add("surface %d position is not three finite coordinates" % bad[0])
    if len(ris.subchannel_of_ris) != ris.num_ris:
        rep.add("subchannel_of_ris length != num_ris")
    elif any(not 0 <= c < r.num_subchannels for c in ris.subchannel_of_ris):
        rep.add("subchannel_of_ris entries must index a subchannel")
    if rep.ok:  # every position is a point, so every link has a length
        fault = short_link(link_distances(s))
        if fault:
            rep.add(fault)
    return rep


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(s.to_dict(), indent=2, sort_keys=True)


class ScenarioInvalid(ValueError):
    """A scenario that cannot run, one line per fault; the command-line
    tool exits 2 on it, before any channel draw."""


def require_valid(s: Scenario, label: str = "") -> Scenario:
    """``s``, or ScenarioInvalid with ``label`` and validate_scenario's
    report unless ``s`` is valid."""
    report = validate_scenario(s)
    if not report.ok:
        raise ScenarioInvalid(label + str(report))
    return s


# keys that older scenario files carry, each with the reason it went
RETIRED_KEYS = {
    "dcf.payload_bytes": "retired key: nothing reads it; dcf.payload_time_s is the payload airtime",
    "dcf.w_max": "retired key: the last window is derived, w_min * 2^max_backoff_stage",
}


def _loaded(annotation: str, value):
    """A file's value as its field holds it: a list for a tuple field
    becomes a tuple, each list inside it too (the points), and an int for a
    float field a float, so a saved scenario loads back equal.  Any other
    value stays as it is, for validate_scenario's type rule."""
    if annotation.startswith("tuple") and isinstance(value, list):
        return tuple(tuple(v) if isinstance(v, list) else v for v in value)
    if annotation == "float" and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # past the float range, as 1e999 reads
            return math.inf
    return value


def _section(cls, d, prefix: str, faults: list):
    """``cls`` built from the mapping ``d`` of its fields by name, a section
    field from its own mapping.  Each structural fault is appended to
    ``faults`` under its key path, and then nothing is built."""
    if not isinstance(d, dict):
        faults.append("%s: not an object (got %.40r)" % (prefix[:-1] or "scenario", d))
        return None
    known = {f.name: f for f in fields(cls)}
    faults += ["%s%s: %s" % (prefix, key, RETIRED_KEYS.get(prefix + key, "unknown key"))
               for key in d if key not in known]
    kwargs = {}
    for name, f in known.items():
        if name in d:
            kwargs[name] = (_section(_SECTIONS[f.type], d[name], prefix + name + ".", faults)
                            if f.type in _SECTIONS else _loaded(f.type, d[name]))
        elif f.default is MISSING and f.default_factory is MISSING:
            faults.append("%s%s: required key missing" % (prefix, name))
    return None if faults else cls(**kwargs)


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario a parsed scenario file holds.

    The file's keys are the fields of Scenario and, in each section, of
    that section's dataclass.  A missing key takes its field's default; a
    field with no default (the population's) is required.  An unknown or
    retired key, a missing required key or a section that is not an object
    raises ScenarioInvalid, one line per fault naming its key path.  The
    values are validate_scenario's to check.
    """
    faults: list = []
    s = _section(Scenario, d, "", faults)
    if faults:
        raise ScenarioInvalid("\n".join(faults))
    return s


def load_scenario(path: str, seed_override=None) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8 text
            raise ScenarioInvalid("%s: not a JSON scenario file (%s)" % (path, e)) from e
    s = scenario_from_dict(d)
    if seed_override is not None:
        s = replace(s, seed=seed_override)
    pop = s.population
    if not pop.positions and _field_faults(s, [], []) == ([], []):
        # draw only the positions: the file's class mix stays; a file with
        # a field of the wrong type or out of its range draws none
        drawn = build_population(pop.num_total, seed=s.seed, area_side_m=s.area_side_m)
        s = replace(s, population=replace(pop, positions=drawn.positions))
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
