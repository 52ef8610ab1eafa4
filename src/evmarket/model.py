"""Core domain types and elementary market formulas.

Money and energy are fixed-point integers (money in cents at MONEY_SCALE,
energy in whole units).  Exact integer arithmetic keeps solver comparisons
and payment differences free of floating-point noise, which matters because
VCG payments subtract two near-equal welfare values.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Mapping, Optional

Money = int  # fixed-point, MONEY_SCALE units per currency unit
Energy = int  # whole energy units

MONEY_SCALE = 100


def non_integer_field(obj) -> Optional[str]:
    """The first init field of dataclass obj declared int, Money or Energy
    whose value is not an int (a bool is not one); None when every one is."""
    return next((f.name for f in fields(obj) if f.init
                 and f.type in ("int", "Money", "Energy") and type(getattr(obj, f.name)) is not int), None)


@dataclass(frozen=True)
class TimeGrid:
    """Discrete scheduling horizon; time indices are ints in [0, horizon_len)."""

    horizon_len: int
    minutes_per_point: int = 15  # reporting only

    def __post_init__(self) -> None:
        if name := non_integer_field(self):
            raise ValueError(f"{name} must be an integer")
        if self.horizon_len < 1:
            raise ValueError("horizon_len must be >= 1")


@dataclass(frozen=True)
class Station:
    """A charging station with a fixed number of simultaneous chargers."""

    id: str
    location: int
    slots: int
    rate: Energy  # energy units delivered per occupied time point
    elec_cost: Money  # cents per energy unit
    expected_demand: tuple[int, ...]  # contracted EV count per time point

    def __post_init__(self) -> None:
        if name := non_integer_field(self):
            raise ValueError(f"station {self.id}: {name} must be an integer")
        if any(type(d) is not int for d in self.expected_demand):
            raise ValueError(f"station {self.id}: expected_demand entries must be integers")
        if self.slots < 0:
            raise ValueError(f"station {self.id}: slots must be >= 0")
        if self.rate <= 0:
            raise ValueError(f"station {self.id}: rate must be > 0")
        if self.elec_cost < 0:
            raise ValueError(f"station {self.id}: elec_cost must be >= 0")
        if any(d < 0 for d in self.expected_demand):
            raise ValueError(f"station {self.id}: expected_demand entries must be >= 0")

    def demand_at(self, t: int) -> int:
        """Contracted EV count at time point t; 0 past the end of expected_demand."""
        return self.expected_demand[t] if t < len(self.expected_demand) else 0

    @property
    def slot_elec_cost(self) -> Money:
        """Electricity cost of one occupied charging slot (rate units delivered)."""
        return self.rate * self.elec_cost


@dataclass(frozen=True)
class EvType:
    """One agent's reported tuple: demand, window, valuation, locations, battery."""

    id: str
    discharge_rate: float  # energy units per km driven
    battery_capacity: Energy
    battery_initial: Energy
    start_location: int
    start_time: int
    end_location: int
    park_duration: int  # time points parked at the station
    energy_demand: Energy  # units the agent wants; all-or-nothing valuation
    base_valuation: Money  # value of receiving energy_demand, before time cost
    time_cost: Money = 0  # disutility at every station, added to any travel cost

    def __post_init__(self) -> None:
        if name := non_integer_field(self):
            raise ValueError(f"ev {self.id}: {name} must be an integer")
        if not 0 <= self.battery_initial <= self.battery_capacity:
            raise ValueError(f"ev {self.id}: battery_initial outside [0, capacity]")
        if not 0 < self.energy_demand <= self.battery_capacity:
            raise ValueError(f"ev {self.id}: energy_demand outside (0, capacity]")
        if self.base_valuation < 0:
            raise ValueError(f"ev {self.id}: base_valuation must be >= 0")
        if self.park_duration < 1:
            raise ValueError(f"ev {self.id}: park_duration must be >= 1")
        if self.start_time < 0:
            raise ValueError(f"ev {self.id}: start_time must be >= 0")
        if self.time_cost < 0:
            raise ValueError(f"ev {self.id}: time_cost must be >= 0")


@dataclass(frozen=True)
class StationAccess:
    """Derived per-station data for one EV: window, valuation, arrival battery."""

    arrival: int
    departure: int
    valuation: Money  # max(0, base_valuation - time_cost); all-or-nothing
    time_cost: Money
    battery_on_arrival: Energy
    charge_slots_needed: int  # ceil(energy_demand / station rate)


@dataclass(frozen=True)
class EvRequest:
    """An EV together with its reachable stations and the feasible subset.

    per_station holds every station passing the reachability and window
    checks; feasible_stations, derived from it at construction, further
    requires a positive post-clamp valuation (a rational agent never accepts
    negative-value service).
    """

    ev: EvType
    per_station: Mapping[str, StationAccess]
    feasible_stations: frozenset[str] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        feasible = frozenset(sid for sid, acc in self.per_station.items() if acc.valuation > 0)
        object.__setattr__(self, "feasible_stations", feasible)

    def access(self, station_id: str) -> StationAccess:
        return self.per_station[station_id]


@dataclass(frozen=True)
class Allocation:
    """Assignment of EVs to stations plus the charging schedule.

    assigned maps every agent id to a station id or None; schedule holds
    (agent_id, station_id, time) triples; objective is the social welfare
    of the schedule in fixed-point money.
    """

    assigned: Mapping[str, Optional[str]]
    schedule: frozenset[tuple[str, str, int]]
    objective: Money


def _index(items, key, kind: str) -> dict:
    index = {}
    for item in items:
        k = key(item)
        if k in index:
            raise ValueError(f"duplicate {kind} id {k!r}")
        index[k] = item
    return index


@dataclass(frozen=True)
class Instance:
    """A fully resolved market problem.

    committed holds the (agent, station, t) slots that earlier market
    clearings gave to agents outside this market: they take chargers and
    count towards each cell's imbalance, and nothing here can move them.
    Station ids and EV ids must each be unique; station() and request()
    look them up in indexes built at construction, and committed_load()
    in the per-cell load derived from committed.  imbalance_cost reads that
    load and the total contracted demand, also derived once.
    """

    time_grid: TimeGrid
    stations: tuple[Station, ...]
    requests: tuple[EvRequest, ...]
    imbalance_unit_cost: Money
    committed: frozenset[tuple[str, str, int]] = frozenset()
    network: Optional[object] = None  # transport.RoadNetwork when routing is modelled
    _stations_by_id: dict[str, Station] = field(init=False, repr=False, compare=False)
    _requests_by_id: dict[str, EvRequest] = field(init=False, repr=False, compare=False)
    _committed_load: Counter[tuple[str, int]] = field(init=False, repr=False, compare=False)
    _total_demand: int = field(init=False, repr=False, compare=False)  # over every cell

    def __post_init__(self) -> None:
        if name := non_integer_field(self):
            raise ValueError(f"{name} must be an integer")
        if self.imbalance_unit_cost < 0:
            raise ValueError("imbalance_unit_cost must be >= 0")
        stations = _index(self.stations, lambda s: s.id, "station")
        requests = _index(self.requests, lambda r: r.ev.id, "EV")
        for req in self.requests:
            unknown = set(req.per_station) - stations.keys()
            if unknown:
                raise ValueError(f"request {req.ev.id} references unknown stations {sorted(unknown)}")
        horizon = self.time_grid.horizon_len
        load = Counter((sid, t) for _, sid, t in self.committed)
        for aid, sid, t in sorted(self.committed):
            if sid not in stations:
                raise ValueError(f"committed slot {(aid, sid, t)} names an unknown station")
            if not 0 <= t < horizon:
                raise ValueError(f"committed slot {(aid, sid, t)} lies outside [0, {horizon})")
            if aid in requests:
                raise ValueError(f"committed slot {(aid, sid, t)} belongs to a request of this market")
            if load[(sid, t)] > stations[sid].slots:
                raise ValueError(f"committed slots fill ({sid},{t}) past its {stations[sid].slots} chargers")
        object.__setattr__(self, "_stations_by_id", stations)
        object.__setattr__(self, "_requests_by_id", requests)
        object.__setattr__(self, "_committed_load", load)
        object.__setattr__(self, "_total_demand",
                           sum(s.demand_at(t) for s in self.stations for t in range(horizon)))

    @property
    def evs(self) -> tuple[EvType, ...]:
        """The reported EV types, in request order."""
        return tuple(r.ev for r in self.requests)

    def station(self, station_id: str) -> Station:
        return self._stations_by_id[station_id]

    def request(self, agent_id: str) -> EvRequest:
        return self._requests_by_id[agent_id]

    def committed_load(self, station_id: str, t: int) -> int:
        """Chargers that committed slots hold at (station_id, t)."""
        return self._committed_load[(station_id, t)]


@dataclass(frozen=True)
class PricingOutcome:
    """Per-agent payments and utilities plus aggregate mechanism accounting."""

    payments: Mapping[str, Money]
    utilities: Mapping[str, Money]
    charged: frozenset[str]
    elec_costs: Mapping[str, Money]  # electricity cost of each charged agent's schedule
    total_imbalance_cost: Money

    @property
    def budget(self) -> Money:
        """Mechanism cash position: payments received minus electricity
        bought minus the imbalance penalty."""
        return (
            sum(self.payments.values())
            - sum(self.elec_costs.values())
            - self.total_imbalance_cost
        )

    @classmethod
    def settle(cls, instance: Instance, schedule: AbstractSet[tuple[str, str, int]],
               payments: Mapping[str, Money], utilities: Mapping[str, Money],
               charged: AbstractSet[str]) -> "PricingOutcome":
        """Outcome of serving the charged agents on schedule: each one's
        electricity cost over its scheduled slots, and the imbalance of the
        whole schedule."""
        elec = dict.fromkeys(sorted(charged), 0)
        for aid, sid, _ in schedule:
            if aid in elec:
                elec[aid] += instance.station(sid).slot_elec_cost
        return cls(payments, utilities, frozenset(charged), elec, imbalance_cost(instance, schedule))


def imbalance_cost(instance: Instance, schedule: AbstractSet[tuple[str, str, int]]) -> Money:
    """Penalty for deviating from the contracted demand profile: the sum over
    every (station, time) cell of |actual load - expected| * unit cost, where
    the actual load counts the schedule and the instance's committed slots.

    A cell without load adds its demand, which is >= 0, so the sum is the
    total demand plus |load - demand| - demand over the loaded cells alone;
    a cell outside the instance's stations or [0, horizon) adds nothing."""
    loads = Counter(instance._committed_load)
    loads.update((sid, t) for _, sid, t in schedule)
    horizon = instance.time_grid.horizon_len
    total = instance._total_demand
    for (sid, t), load in loads.items():
        station = instance._stations_by_id.get(sid)
        if station is not None and 0 <= t < horizon:
            demand = station.demand_at(t)
            total += abs(load - demand) - demand
    return instance.imbalance_unit_cost * total
