"""Road network, shortest distances, and derivation of per-station EV requests."""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .model import EvRequest, EvType, Money, Station, StationAccess, TimeGrid


@dataclass(frozen=True)
class TimeCostParams:
    """Converts travel effort into money: driving per time point spent on the
    road, walking per km from the station to the final destination."""

    per_drive_point: Money = 0
    per_walk_km: Money = 0


class NetworkError(ValueError):
    """A RoadNetwork field breaks a rule; field names it, as in edges[1].b."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class LocationError(ValueError):
    """A station or EV location is not a network node; id names the station
    or EV and field its location field: location for a station,
    start_location or end_location for an EV."""

    def __init__(self, id: str, field: str, message: str):
        super().__init__(message)
        self.id = id
        self.field = field


@dataclass(frozen=True)
class RoadNetwork:
    nodes: frozenset[int]
    edges: tuple[tuple[int, int, float], ...]  # (a, b, length km), undirected
    charging_nodes: frozenset[int]
    avg_speed: float = 1.0  # km per time point
    time_cost: TimeCostParams = TimeCostParams()

    def __post_init__(self) -> None:
        if not self.charging_nodes <= self.nodes:
            raise NetworkError("charging_nodes", "must be a subset of nodes")
        if not self.avg_speed > 0:
            raise NetworkError("avg_speed", "must be > 0")
        for name in ("per_drive_point", "per_walk_km"):
            if getattr(self.time_cost, name) < 0:
                raise NetworkError(f"time_cost.{name}", "must be >= 0")
        for i, (a, b, km) in enumerate(self.edges):
            for end, node in (("a", a), ("b", b)):
                if node not in self.nodes:
                    raise NetworkError(f"edges[{i}].{end}", f"node {node} is not in nodes")
            if km <= 0:
                raise NetworkError(f"edges[{i}].km", "must be > 0")


def distances_km(network: RoadNetwork, sources: Iterable[int]) -> dict[int, dict[int, float]]:
    """Dijkstra from each source over one adjacency built for the call:
    source -> {node: shortest distance in km} for every node it reaches."""
    adjacency: dict[int, list[tuple[int, float]]] = {n: [] for n in network.nodes}
    for a, b, km in network.edges:
        adjacency[a].append((b, km))
        adjacency[b].append((a, km))
    tables = {}
    for source in sources:
        dist = tables[source] = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for nxt, km in adjacency[node]:
                if d + km < dist.get(nxt, math.inf):
                    dist[nxt] = d + km
                    heapq.heappush(heap, (d + km, nxt))
    return tables


def _access(
    ev: EvType, station: Station, horizon: int, drive_time: int, energy: int, kappa: Money
) -> Optional[StationAccess]:
    """Window and valuation at one station for an EV that spends drive_time
    points and energy units reaching it and bears time cost kappa there."""
    if ev.battery_initial < energy:  # cannot reach the station at all
        return None
    arrival = ev.start_time + drive_time
    departure = min(arrival + ev.park_duration, horizon)
    if arrival >= horizon or arrival >= departure:
        return None
    needed = math.ceil(ev.energy_demand / station.rate)
    if departure - arrival < needed:
        return None
    return StationAccess(
        arrival=arrival,
        departure=departure,
        valuation=max(0, ev.base_valuation - kappa),
        time_cost=kappa,
        battery_on_arrival=ev.battery_initial - energy,
        charge_slots_needed=needed,
    )


def _routed_access(
    network: RoadNetwork, ev: EvType, station: Station, horizon: int, from_station: dict[int, float]
) -> Optional[StationAccess]:
    """Access through the road network; from_station holds the distances
    from the station's node, which on an undirected network are both the
    drive there from the start and the walk on to the destination."""
    drive_km = from_station.get(ev.start_location)
    walk_km = from_station.get(ev.end_location)
    if drive_km is None or walk_km is None:
        return None
    drive_time = math.ceil(drive_km / network.avg_speed - 1e-9)  # conservative arrival
    energy = math.ceil(drive_km * ev.discharge_rate - 1e-9)
    params = network.time_cost
    kappa = params.per_drive_point * drive_time + round(params.per_walk_km * walk_km)
    return _access(ev, station, horizon, drive_time, energy, kappa)


def _request(ev: EvType, per_station: dict[str, StationAccess]) -> EvRequest:
    feasible = frozenset(sid for sid, acc in per_station.items() if acc.valuation > 0)
    return EvRequest(ev=ev, per_station=per_station, feasible_stations=feasible)


def request_builder(
    network: Optional[RoadNetwork], stations: Sequence[Station], time_grid: TimeGrid
) -> Callable[[EvType], EvRequest]:
    """Return a function that turns one EV report into its per-station request.

    A station is listed when it is reachable with the initial battery and the
    parking window (clipped to the horizon) fits the required charging slots;
    it is *feasible* when additionally the post-clamp valuation is positive.
    An EV with no feasible station is kept but can never be allocated.

    With network=None ("flat mode") all drive distances are zero and the time
    cost comes from each EV's explicit time_cost field.  Otherwise Dijkstra
    runs once per station location, and a station or EV location that is
    not a network node raises LocationError.
    """
    horizon = time_grid.horizon_len
    if network is not None:
        for st in stations:
            if st.location not in network.nodes:
                raise LocationError(st.id, "location",
                                    f"station {st.id} is at location {st.location}, not a network node")
        tables = distances_km(network, {st.location for st in stations})

    def build(ev: EvType) -> EvRequest:
        if network is not None:
            for name in ("start_location", "end_location"):
                if (node := getattr(ev, name)) not in network.nodes:
                    raise LocationError(ev.id, name, f"EV {ev.id} has {name} {node}, not a network node")
        per_station: dict[str, StationAccess] = {}
        for st in stations:
            if network is None:
                access = _access(ev, st, horizon, 0, 0, ev.time_cost)
            else:
                access = _routed_access(network, ev, st, horizon, tables[st.location])
            if access is not None:
                per_station[st.id] = access
        return _request(ev, per_station)

    return build


def build_requests(
    network: Optional[RoadNetwork],
    evs: Sequence[EvType],
    stations: Sequence[Station],
    time_grid: TimeGrid,
) -> list[EvRequest]:
    """Turn raw EV reports into per-station requests (see request_builder)."""
    build = request_builder(network, stations, time_grid)
    return [build(ev) for ev in evs]


def reprice_requests(
    requests: Sequence[EvRequest], new_valuations: dict[str, Money]
) -> list[EvRequest]:
    """Rebuild requests after some agents change their reported base
    valuation; windows and reachability are unaffected, only valuations and
    the feasible set move."""
    out = []
    for req in requests:
        if req.ev.id not in new_valuations:
            out.append(req)
            continue
        new_base = new_valuations[req.ev.id]
        ev = dataclasses.replace(req.ev, base_valuation=new_base)
        per_station = {
            sid: dataclasses.replace(acc, valuation=max(0, new_base - acc.time_cost))
            for sid, acc in req.per_station.items()
        }
        out.append(_request(ev, per_station))
    return out


def remaining_request(req: EvRequest, not_before: int) -> EvRequest:
    """The request a market clearing at not_before sees: every window cut to
    start at not_before or later, and a station dropped once the rest of its
    window no longer fits the charging slots the EV needs."""
    per_station = {}
    for sid, acc in req.per_station.items():
        arrival = max(acc.arrival, not_before)
        if acc.departure - arrival >= acc.charge_slots_needed:
            per_station[sid] = dataclasses.replace(acc, arrival=arrival)
    return _request(req.ev, per_station)
