"""JSON/CSV wire formats.

The instance document carries `time_grid`, `stations`, `evs`,
`imbalance_unit_cost`, and an optional `network`; requests are rebuilt from
the EV reports on load.  Money and energy fields are fixed-point integers
with the scale recorded in the header.
"""

from __future__ import annotations

import csv
import json
from typing import Optional, TextIO

from .model import (
    MONEY_SCALE,
    Allocation,
    EvType,
    Instance,
    PricingOutcome,
    Station,
    TimeGrid,
)
from .transport import LocationError, NetworkError, RoadNetwork, TimeCostParams, build_requests

FORMAT_VERSION = "1"


class FormatError(Exception):
    """The document is missing or mistypes a required key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(key, "missing required key")
    return doc[key]


def _require_unique_ids(items, section: str) -> None:
    seen = set()
    for i, item in enumerate(items):
        if item.id in seen:
            raise FormatError(f"{section}[{i}].id", f"duplicate id {item.id!r}")
        seen.add(item.id)


def instance_to_dict(instance: Instance) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "scale": MONEY_SCALE,
        "time_grid": {
            "horizon_len": instance.time_grid.horizon_len,
            "minutes_per_point": instance.time_grid.minutes_per_point,
        },
        "stations": [
            {
                "id": s.id,
                "location": s.location,
                "slots": s.slots,
                "rate": s.rate,
                "elec_cost": s.elec_cost,
                "expected_demand": list(s.expected_demand),
            }
            for s in instance.stations
        ],
        "evs": [
            {
                "id": e.id,
                "discharge_rate": e.discharge_rate,
                "battery_capacity": e.battery_capacity,
                "battery_initial": e.battery_initial,
                "start_location": e.start_location,
                "start_time": e.start_time,
                "end_location": e.end_location,
                "park_duration": e.park_duration,
                "energy_demand": e.energy_demand,
                "base_valuation": e.base_valuation,
                "time_cost": e.time_cost,
            }
            for e in instance.evs
        ],
        "imbalance_unit_cost": instance.imbalance_unit_cost,
    }
    net = instance.network
    if net is not None:
        doc["network"] = {
            "nodes": sorted(net.nodes),
            "edges": [{"a": a, "b": b, "km": km} for a, b, km in net.edges],
            "charging_nodes": sorted(net.charging_nodes),
            "avg_speed": net.avg_speed,
            "per_drive_point": net.time_cost.per_drive_point,
            "per_walk_km": net.time_cost.per_walk_km,
        }
    return doc


def instance_from_dict(doc: dict) -> Instance:
    try:
        tg = _require(doc, "time_grid")
        grid = TimeGrid(
            horizon_len=int(_require(tg, "horizon_len")),
            minutes_per_point=int(tg.get("minutes_per_point", 15)),
        )
        stations = tuple(
            Station(
                id=str(_require(s, "id")),
                location=int(s.get("location", i)),
                slots=int(_require(s, "slots")),
                rate=int(_require(s, "rate")),
                elec_cost=int(_require(s, "elec_cost")),
                expected_demand=tuple(int(d) for d in _require(s, "expected_demand")),
            )
            for i, s in enumerate(_require(doc, "stations"))
        )
        _require_unique_ids(stations, "stations")
        evs = tuple(
            EvType(
                id=str(_require(e, "id")),
                discharge_rate=float(e.get("discharge_rate", 1.0)),
                battery_capacity=int(_require(e, "battery_capacity")),
                battery_initial=int(_require(e, "battery_initial")),
                start_location=int(e.get("start_location", 0)),
                start_time=int(_require(e, "start_time")),
                end_location=int(e.get("end_location", 0)),
                park_duration=int(_require(e, "park_duration")),
                energy_demand=int(_require(e, "energy_demand")),
                base_valuation=int(_require(e, "base_valuation")),
                time_cost=int(e.get("time_cost", 0)),
            )
            for e in _require(doc, "evs")
        )
        _require_unique_ids(evs, "evs")
        imbalance = int(_require(doc, "imbalance_unit_cost"))
        network: Optional[RoadNetwork] = None
        if doc.get("network") is not None:
            nd = doc["network"]
            try:
                network = RoadNetwork(
                    nodes=frozenset(int(n) for n in _require(nd, "nodes")),
                    edges=tuple(
                        (int(e["a"]), int(e["b"]), float(e["km"])) for e in _require(nd, "edges")
                    ),
                    charging_nodes=frozenset(int(n) for n in _require(nd, "charging_nodes")),
                    avg_speed=float(nd.get("avg_speed", 1.0)),
                    time_cost=TimeCostParams(
                        per_drive_point=int(nd.get("per_drive_point", 0)),
                        per_walk_km=int(nd.get("per_walk_km", 0)),
                    ),
                )
            except NetworkError as exc:
                raise FormatError(f"network.{exc.field}", exc.message) from exc
            for i, e in enumerate(evs):
                if not e.discharge_rate >= 0:
                    raise FormatError(f"evs[{i}].discharge_rate", "must be >= 0")
        try:
            requests = tuple(build_requests(network, evs, stations, grid))
        except LocationError as exc:
            # ids are unique per section; only a station has a plain "location"
            section, items = ("stations", stations) if exc.field == "location" else ("evs", evs)
            i = next(i for i, item in enumerate(items) if item.id == exc.id)
            raise FormatError(f"{section}[{i}].{exc.field}", str(exc)) from exc
        return Instance(
            time_grid=grid,
            stations=stations,
            requests=requests,
            imbalance_unit_cost=imbalance,
            network=network,
        )
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("document", str(exc)) from exc


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("json", f"malformed document: {exc}") from exc
    return instance_from_dict(doc)


def allocation_to_dict(allocation: Allocation) -> dict:
    return {
        "scale": MONEY_SCALE,
        "assigned": {aid: sid for aid, sid in sorted(allocation.assigned.items())},
        "schedule": sorted([list(tr) for tr in allocation.schedule]),
        "objective": allocation.objective,
    }


def write_pricing_csv(outcome: PricingOutcome, allocation: Allocation, fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(["agent_id", "station", "payment", "valuation", "utility", "charged"])
    for aid in sorted(outcome.payments):
        sid = allocation.assigned.get(aid)
        charged = aid in outcome.charged
        val = outcome.utilities[aid] + outcome.payments[aid] if charged else 0
        writer.writerow([aid, sid or "", outcome.payments[aid], val, outcome.utilities[aid], int(charged)])
