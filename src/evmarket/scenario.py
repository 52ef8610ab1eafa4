"""Seeded synthetic scenario generation.

Distributions follow the uniform-with-stated-endpoints reading: arrivals on
[0, 0.6*horizon], parking until a uniform departure, demand a uniform integer
that always fits the parking window at rate 1, per-unit valuations uniform on
[0, 1] money units and multiplied by the demand.  Stations sit on a ring road
with intermediate junction nodes; EVs start and end at random junctions with
enough initial battery to reach any station.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

from .model import EvRequest, EvType, Instance, Money, Station, TimeGrid
from .transport import RoadNetwork, build_requests, request_builder


class ResampleLimit(Exception):
    """Feasibility resampling exceeded its retry budget; the distribution
    overrides are inconsistent with the feasibility guarantee."""


RATE = 1  # energy units per time point, at every station
DEMAND_LOW, DEMAND_HIGH = 1, 3  # expected demand uniform integer on [low, high]
RESAMPLE_LIMIT = 1000  # redraws of one EV before generate gives up


@dataclass(frozen=True)
class GenParams:
    n_evs: int = 30
    n_stations: int = 8
    horizon: int = 50
    slots: int = 2
    elec_cost: Money = 100  # cents per unit
    imbalance_unit_cost: Money = 50  # cents per unit of demand deviation
    value_per_unit_max: Money = 100  # per-unit valuation uniform on [0, this]
    arrival_frac: float = 0.6  # start times uniform on [0, arrival_frac*horizon]
    per_drive_point: Money = 5
    per_walk_km: Money = 5
    flat: bool = False  # skip the road network entirely
    max_park: Optional[int] = None  # cap on parking duration (default: until horizon)
    max_demand: Optional[int] = None  # cap on energy demand (default: parking length)

    def __post_init__(self) -> None:
        # each refusal reads "<field> <rule>", so a front end can name its own flag
        for field, low in (("n_evs", 0), ("n_stations", 1), ("horizon", 1), ("slots", 0),
                           ("elec_cost", 0), ("imbalance_unit_cost", 0),
                           ("value_per_unit_max", 0), ("per_drive_point", 0), ("per_walk_km", 0)):
            value = getattr(self, field)
            if value < low:
                raise ValueError(f"{field} must be >= {low}, got {value}")
        if not math.isfinite(self.arrival_frac):
            raise ValueError(f"arrival_frac must be finite, got {self.arrival_frac}")
        for field in ("max_park", "max_demand"):  # None: no cap
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ValueError(f"{field} must be >= 1 when set, got {value}")


def _ring_network(params: GenParams) -> RoadNetwork:
    """Stations on a ring, one plain junction between each adjacent pair."""
    n = params.n_stations
    total = max(2 * n, 3)
    nodes = frozenset(range(total))
    edges = tuple((i, (i + 1) % total, 1.0) for i in range(total))
    charging = frozenset(2 * i for i in range(n))
    return RoadNetwork(
        nodes=nodes,
        edges=edges,
        charging_nodes=charging,
        avg_speed=2.0,
        per_drive_point=params.per_drive_point,
        per_walk_km=params.per_walk_km,
    )


def generate(params: GenParams, seed: int) -> Instance:
    """Build a reproducible random instance; every generated EV is guaranteed
    a nonempty feasible station set (resampled up to RESAMPLE_LIMIT times)."""
    rng = random.Random(seed)
    grid = TimeGrid(horizon_len=params.horizon)
    network = None if params.flat else _ring_network(params)
    if network is None:
        station_nodes = list(range(params.n_stations))
        all_nodes = station_nodes
    else:
        station_nodes = sorted(network.charging_nodes)
        all_nodes = sorted(network.nodes)

    stations = tuple(
        Station(
            id=f"L{i + 1}",
            location=station_nodes[i],
            slots=params.slots,
            rate=RATE,
            elec_cost=params.elec_cost,
            expected_demand=tuple(
                rng.randint(DEMAND_LOW, DEMAND_HIGH) for _ in range(params.horizon)
            ),
        )
        for i in range(params.n_stations)
    )

    # enough charge to reach any station from anywhere on the ring
    reach_energy = math.ceil(len(all_nodes) / 2) if network is not None else 0
    arr_high = max(0, round(params.arrival_frac * params.horizon))

    build = request_builder(network, stations, grid)
    requests: list[EvRequest] = []
    for k in range(params.n_evs):
        for attempt in range(RESAMPLE_LIMIT + 1):
            start_time = rng.randint(0, min(arr_high, params.horizon - 1))
            park_high = params.horizon - start_time
            if params.max_park is not None:
                park_high = min(park_high, params.max_park)
            park = rng.randint(1, park_high)
            dem_cap = park if params.max_demand is None else min(park, params.max_demand)
            demand = rng.randint(1, dem_cap)
            per_unit = rng.randint(0, params.value_per_unit_max)
            ev = EvType(
                id=f"a{k + 1}",
                discharge_rate=1.0,
                battery_capacity=reach_energy + demand,
                battery_initial=reach_energy,
                start_location=rng.choice(all_nodes),
                start_time=start_time,
                end_location=rng.choice(all_nodes),
                park_duration=park,
                energy_demand=demand,
                base_valuation=per_unit * demand,
            )
            request = build(ev)
            if request.feasible_stations:
                requests.append(request)
                break
        else:
            raise ResampleLimit(f"could not draw a feasible EV after {RESAMPLE_LIMIT} tries")

    return Instance(
        time_grid=grid,
        stations=stations,
        requests=tuple(requests),
        imbalance_unit_cost=params.imbalance_unit_cost,
        network=network,
    )


def perturb_reports(
    instance: Instance, liar_fraction: float, valuation_multiplier: float, seed: int
) -> tuple[Instance, dict[str, Money]]:
    """Select floor(liar_fraction * n) agents at random and scale their
    reported base valuation.  Returns the reported instance (what the
    mechanisms see, its requests rebuilt from the reports) and a map from
    liar id to its true valuation."""
    if not 0.0 <= liar_fraction <= 1.0:
        raise ValueError("liar_fraction must be in [0, 1]")
    rng = random.Random(seed)
    ids = sorted(r.ev.id for r in instance.requests)
    n_liars = int(liar_fraction * len(ids))
    liars = sorted(rng.sample(ids, n_liars))
    truth = {aid: instance.request(aid).ev.base_valuation for aid in liars}
    evs = [replace(ev, base_valuation=round(truth[ev.id] * valuation_multiplier))
           if ev.id in truth else ev for ev in instance.evs]
    requests = build_requests(instance.network, evs, instance.stations, instance.time_grid)
    return replace(instance, requests=tuple(requests)), truth
