"""Road network, shortest distances, and derivation of per-station EV requests."""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .model import EvRequest, EvType, Money, Station, StationAccess, TimeGrid, non_integer_field


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
    per_drive_point: Money = 0  # time cost per time point driven to a station
    per_walk_km: Money = 0  # time cost per km walked on from it to the destination

    def __post_init__(self) -> None:
        if name := non_integer_field(self):
            raise NetworkError(name, "must be an integer")
        if not self.charging_nodes <= self.nodes:
            raise NetworkError("charging_nodes", "must be a subset of nodes")
        if not self.avg_speed > 0:
            raise NetworkError("avg_speed", "must be > 0")
        for name in ("per_drive_point", "per_walk_km"):
            if getattr(self, name) < 0:
                raise NetworkError(name, "must be >= 0")
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
    ev: EvType, station: Station, horizon: int,
    network: Optional[RoadNetwork], from_station: Optional[dict[int, float]],
) -> Optional[StationAccess]:
    """Window and valuation at one station.  On a flat market (network None)
    nothing is driven or walked.  Otherwise from_station holds the distances
    from the station's node, which on an undirected network are both the
    drive there from the start and the walk on to the destination."""
    drive_time = energy = 0
    kappa = ev.time_cost
    if network is not None:
        drive_km = from_station.get(ev.start_location)
        walk_km = from_station.get(ev.end_location)
        if drive_km is None or walk_km is None:
            return None
        drive_time = math.ceil(drive_km / network.avg_speed - 1e-9)  # conservative arrival
        energy = math.ceil(drive_km * ev.discharge_rate - 1e-9)
        kappa += network.per_drive_point * drive_time + round(network.per_walk_km * walk_km)
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


def request_builder(
    network: Optional[RoadNetwork], stations: Sequence[Station], time_grid: TimeGrid
) -> Callable[[EvType], EvRequest]:
    """Return a function that turns one EV report into its per-station request.

    A station is listed when it is reachable with the initial battery and the
    parking window (clipped to the horizon) fits the required charging slots;
    it is *feasible* when additionally the post-clamp valuation is positive.
    An EV with no feasible station is kept but can never be allocated.

    An EV's time cost at a station is its own time_cost plus, on a routed
    market, the network's drive and walk terms.  With network=None (a flat
    market) nothing is driven or walked.  Otherwise Dijkstra runs once per
    station location, and a station or EV location that is not a network
    node raises LocationError.
    """
    horizon = time_grid.horizon_len
    tables: dict[int, dict[int, float]] = {}
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
            access = _access(ev, st, horizon, network, tables.get(st.location))
            if access is not None:
                per_station[st.id] = access
        return EvRequest(ev, per_station)

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


def remaining_request(req: EvRequest, not_before: int) -> EvRequest:
    """The request a market clearing at not_before sees: every window cut to
    start at not_before or later, and a station dropped once the rest of its
    window no longer fits the charging slots the EV needs."""
    per_station = {}
    for sid, acc in req.per_station.items():
        arrival = max(acc.arrival, not_before)
        if acc.departure - arrival >= acc.charge_slots_needed:
            per_station[sid] = dataclasses.replace(acc, arrival=arrival)
    return EvRequest(req.ev, per_station)
