"""Road network, shortest routes, and derivation of per-station EV requests."""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import EvRequest, EvType, Money, Station, StationAccess, TimeGrid


class NoPath(Exception):
    """Destination unreachable from the origin."""


@dataclass(frozen=True)
class TimeCostParams:
    """Converts travel effort into money: driving per time point spent on the
    road, walking per km from the station to the final destination."""

    per_drive_point: Money = 0
    per_walk_km: Money = 0


@dataclass(frozen=True)
class RoadNetwork:
    nodes: frozenset[int]
    edges: tuple[tuple[int, int, float], ...]  # (a, b, length km), undirected
    charging_nodes: frozenset[int]
    avg_speed: float = 1.0  # km per time point
    time_cost: TimeCostParams = TimeCostParams()

    def __post_init__(self) -> None:
        if not self.charging_nodes <= self.nodes:
            raise ValueError("charging_nodes must be a subset of nodes")
        for a, b, km in self.edges:
            if km <= 0:
                raise ValueError(f"edge ({a},{b}) has non-positive length")

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {n: [] for n in self.nodes}
        for a, b, km in self.edges:
            adj[a].append((b, km))
            adj[b].append((a, km))
        for neighbours in adj.values():
            neighbours.sort()
        return adj


@dataclass(frozen=True)
class Route:
    from_node: int
    to_node: int
    distance_km: float
    drive_time: int  # time points, rounded up (conservative arrival)
    path: tuple[int, ...]

    def energy_need(self, discharge_rate: float) -> int:
        """Energy units consumed driving this route, rounded up."""
        return math.ceil(self.distance_km * discharge_rate - 1e-9)


def shortest_route(network: RoadNetwork, from_node: int, to_node: int) -> Route:
    """Dijkstra shortest path; equal-distance ties broken by the
    lexicographically smallest node-id path so results are reproducible."""
    if from_node not in network.nodes or to_node not in network.nodes:
        raise NoPath(f"unknown node in route {from_node} -> {to_node}")
    if from_node == to_node:
        return Route(from_node, to_node, 0.0, 0, (from_node,))
    adj = network.adjacency()
    # heap entries carry the path so that ties resolve lexicographically
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (from_node,))]
    best: dict[int, tuple[float, tuple[int, ...]]] = {}
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and (best[node][0] < dist - 1e-9 or best[node][1] != path):
            continue
        if node == to_node:
            drive_time = math.ceil(dist / network.avg_speed - 1e-9)
            return Route(from_node, to_node, dist, drive_time, path)
        for nxt, km in adj[node]:
            if nxt in path:
                continue
            cand = (dist + km, path + (nxt,))
            prev = best.get(nxt)
            if prev is None or cand[0] < prev[0] - 1e-9 or (abs(cand[0] - prev[0]) <= 1e-9 and cand[1] < prev[1]):
                best[nxt] = cand
                heapq.heappush(heap, cand)
    raise NoPath(f"no route from {from_node} to {to_node}")


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
    network: RoadNetwork, ev: EvType, station: Station, horizon: int
) -> Optional[StationAccess]:
    try:
        route = shortest_route(network, ev.start_location, station.location)
        walk = shortest_route(network, station.location, ev.end_location)
    except NoPath:
        return None
    params = network.time_cost
    kappa = (
        params.per_drive_point * route.drive_time
        + round(params.per_walk_km * walk.distance_km)
    )
    return _access(
        ev, station, horizon, route.drive_time, route.energy_need(ev.discharge_rate), kappa
    )


def _request(ev: EvType, per_station: dict[str, StationAccess]) -> EvRequest:
    feasible = frozenset(sid for sid, acc in per_station.items() if acc.valuation > 0)
    return EvRequest(ev=ev, per_station=per_station, feasible_stations=feasible)


def build_requests(
    network: Optional[RoadNetwork],
    evs: Sequence[EvType],
    stations: Sequence[Station],
    time_grid: TimeGrid,
) -> list[EvRequest]:
    """Turn raw EV reports into per-station requests.

    A station is listed when it is reachable with the initial battery and the
    parking window (clipped to the horizon) fits the required charging slots;
    it is *feasible* when additionally the post-clamp valuation is positive.
    An EV with no feasible station is kept but can never be allocated.

    With network=None ("flat mode") all drive distances are zero and the time
    cost comes from each EV's explicit time_cost field.
    """
    horizon = time_grid.horizon_len
    requests = []
    for ev in evs:
        per_station: dict[str, StationAccess] = {}
        for st in stations:
            if network is None:
                access = _access(ev, st, horizon, 0, 0, ev.time_cost)
            else:
                access = _routed_access(network, ev, st, horizon)
            if access is not None:
                per_station[st.id] = access
        requests.append(_request(ev, per_station))
    return requests


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
