"""JSON/CSV wire formats.

The instance document carries `time_grid`, `stations`, `evs`,
`imbalance_unit_cost`, and an optional `network`; requests are rebuilt from
the EV reports on load.  Money and energy fields are fixed-point integers
with the scale recorded in the header.  Each section's keys are stated once,
as a table of (key, type, default) that drives both the writer and the
reader; the reader rejects a mistyped, missing or unknown key by its full
name, as in `stations[1].slots`.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TextIO

from .model import MONEY_SCALE, Allocation, EvType, Instance, PricingOutcome, Station, TimeGrid
from .transport import LocationError, NetworkError, RoadNetwork, build_requests

FORMAT_VERSION = "1"

REQUIRED = object()  # a table default: the key must be present
POSITION = object()  # a table default: the entry's index in its section
INTS = (int,)  # a table type: a list of integers
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list", INTS: "a list of integers"}

DOCUMENT_KEYS = (
    ("format_version", str, FORMAT_VERSION),  # must equal FORMAT_VERSION
    ("scale", int, MONEY_SCALE),  # must equal MONEY_SCALE
    ("time_grid", dict, REQUIRED),
    ("stations", list, REQUIRED),
    ("evs", list, REQUIRED),
    ("imbalance_unit_cost", int, REQUIRED),
    ("network", dict, None),  # absent for a flat instance
)
TIME_GRID_KEYS = (("horizon_len", int, REQUIRED), ("minutes_per_point", int, 15))
STATION_KEYS = (
    ("id", str, REQUIRED), ("location", int, POSITION), ("slots", int, REQUIRED),
    ("rate", int, REQUIRED), ("elec_cost", int, REQUIRED), ("expected_demand", INTS, REQUIRED),
)
EV_KEYS = (
    ("id", str, REQUIRED), ("discharge_rate", float, 1.0),
    ("battery_capacity", int, REQUIRED), ("battery_initial", int, REQUIRED),
    ("start_location", int, 0), ("start_time", int, REQUIRED),
    ("end_location", int, 0), ("park_duration", int, REQUIRED),
    ("energy_demand", int, REQUIRED), ("base_valuation", int, REQUIRED), ("time_cost", int, 0),
)
NETWORK_KEYS = (
    ("nodes", INTS, REQUIRED), ("edges", list, REQUIRED), ("charging_nodes", INTS, REQUIRED),
    ("avg_speed", float, 1.0), ("per_drive_point", int, 0), ("per_walk_km", int, 0),
)
EDGE_KEYS = (("a", int, REQUIRED), ("b", int, REQUIRED), ("km", float, REQUIRED))


class FormatError(Exception):
    """The document is missing, mistypes or breaks the rule of a key; key
    names it, as in `evs[2].start_time`, or the entry, as in `stations[1]`."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _value(key: str, value, kind):
    if kind is INTS and type(value) is list:
        return tuple(_value(f"{key}[{j}]", v, int) for j, v in enumerate(value))
    # a bool is no integer, an integer is a float, and NaN or inf is no number
    ok = type(value) in (int, float) and math.isfinite(value) if kind is float else type(value) is kind
    if not ok:
        raise FormatError(key, f"must be {_TYPE_NAMES[kind]}")
    return float(value) if kind is float else value


def _read(doc, table, where: str = "", index: int = 0) -> dict:
    """Every key of one section, type-checked, with defaults filled in."""
    if type(doc) is not dict:
        raise FormatError(where or "json", "must be an object")
    prefix = f"{where}." if where else ""
    names = [key for key, _, _ in table]
    unknown = [key for key in doc if key not in names]
    if unknown:
        raise FormatError(prefix + unknown[0], "unknown key")
    fields = {}
    for key, kind, default in table:
        if key in doc:
            fields[key] = _value(prefix + key, doc[key], kind)
        elif default is REQUIRED:
            raise FormatError(prefix + key, "missing required key")
        else:
            fields[key] = index if default is POSITION else default
    return fields


def _build(cls, key: str, fields: dict):
    """cls(**fields), its own ValueError reported against key."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise FormatError(key, str(exc)) from exc


def _entries(top: dict, section: str, table, cls) -> tuple:
    items, ids = [], set()
    for i, doc in enumerate(top[section]):
        where = f"{section}[{i}]"
        item = _build(cls, where, _read(doc, table, where, i))
        if item.id in ids:
            raise FormatError(f"{where}.id", f"duplicate id {item.id!r}")
        ids.add(item.id)
        items.append(item)
    return tuple(items)


def _dump(obj, table) -> dict:
    return {key: list(getattr(obj, key)) if kind is INTS else getattr(obj, key) for key, kind, _ in table}


def instance_to_dict(instance: Instance) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "scale": MONEY_SCALE,
        "time_grid": _dump(instance.time_grid, TIME_GRID_KEYS),
        "stations": [_dump(s, STATION_KEYS) for s in instance.stations],
        "evs": [_dump(e, EV_KEYS) for e in instance.evs],
        "imbalance_unit_cost": instance.imbalance_unit_cost,
    }
    net = instance.network
    if net is not None:
        doc["network"] = {
            **_dump(net, NETWORK_KEYS),
            "nodes": sorted(net.nodes),
            "edges": [{"a": a, "b": b, "km": km} for a, b, km in net.edges],
            "charging_nodes": sorted(net.charging_nodes),
        }
    return doc


def instance_from_dict(doc: dict) -> Instance:
    top = _read(doc, DOCUMENT_KEYS)
    for key, want in (("format_version", FORMAT_VERSION), ("scale", MONEY_SCALE)):
        if top[key] != want:
            raise FormatError(key, f"must be {want!r}")
    grid = _build(TimeGrid, "time_grid", _read(top["time_grid"], TIME_GRID_KEYS, "time_grid"))
    stations = _entries(top, "stations", STATION_KEYS, Station)
    evs = _entries(top, "evs", EV_KEYS, EvType)
    network = None
    if top["network"] is not None:
        fields = _read(top["network"], NETWORK_KEYS, "network")
        fields["edges"] = tuple(tuple(_read(e, EDGE_KEYS, f"network.edges[{i}]").values())
                                for i, e in enumerate(fields["edges"]))
        for key in ("nodes", "charging_nodes"):
            fields[key] = frozenset(fields[key])
        try:
            network = RoadNetwork(**fields)
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
    # ids are unique by now, so the instance's only rule a document can break
    # is its own imbalance_unit_cost
    return _build(Instance, "imbalance_unit_cost", dict(
        time_grid=grid, stations=stations, requests=requests,
        imbalance_unit_cost=top["imbalance_unit_cost"], network=network))


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
