import dataclasses
import io
import json
import math
import re

import pytest

from evmarket import GenParams, generate, build_model, price_coop, solve_exact
from evmarket.experiments import DESK, DESK_CONTESTED
from evmarket.serialize import (
    DOCUMENT_KEYS,
    EDGE_KEYS,
    EV_KEYS,
    NETWORK_KEYS,
    STATION_KEYS,
    TIME_GRID_KEYS,
    FormatError,
    allocation_to_dict,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    write_pricing_csv,
)


def test_roundtrip(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    markets = [GenParams(n_evs=6, n_stations=2, horizon=10), DESK, DESK_CONTESTED,
               dataclasses.replace(DESK, flat=True)]
    for params in markets:
        for seed in (4, 7):
            inst = generate(params, seed=seed)
            dump_instance(inst, str(first))
            again = load_instance(str(first))
            assert again == inst
            dump_instance(again, str(second))
            assert second.read_bytes() == first.read_bytes()


def test_roundtrip_flat(tmp_path):
    inst = generate(GenParams(n_evs=3, n_stations=2, horizon=8, flat=True), seed=1)
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    assert load_instance(str(path)) == inst


def test_dump_is_deterministic(tmp_path):
    inst = generate(GenParams(n_evs=5, n_stations=2, horizon=10), seed=9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_instance(inst, str(p1))
    dump_instance(inst, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_key_named():
    doc = instance_to_dict(generate(GenParams(n_evs=2, n_stations=2, horizon=6), seed=0))
    del doc["imbalance_unit_cost"]
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "imbalance_unit_cost"


def test_missing_nested_key_named():
    doc = instance_to_dict(generate(GenParams(n_evs=2, n_stations=2, horizon=6), seed=0))
    del doc["stations"][0]["slots"]
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "stations[0].slots"


def test_duplicate_ids_named():
    doc = instance_to_dict(generate(GenParams(n_evs=2, n_stations=2, horizon=6), seed=0))
    doc["evs"][1]["id"] = doc["evs"][0]["id"]
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "evs[1].id"

    doc = instance_to_dict(generate(GenParams(n_evs=2, n_stations=2, horizon=6), seed=0))
    doc["stations"][1]["id"] = doc["stations"][0]["id"]
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "stations[1].id"


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError) as exc:
        load_instance(str(path))
    assert exc.value.key == "json"


def test_format_version_recorded():
    doc = instance_to_dict(generate(GenParams(n_evs=2, n_stations=2, horizon=6), seed=0))
    assert doc["format_version"] == "1"
    assert doc["scale"] == 100


def test_allocation_and_pricing_outputs(tiny1):
    result = solve_exact(build_model(tiny1))
    doc = allocation_to_dict(result.allocation)
    assert doc["objective"] == 400
    assert json.dumps(doc)  # serializable

    out = price_coop(tiny1, result.allocation, 0.0)
    buf = io.StringIO()
    write_pricing_csv(out, result.allocation, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "agent_id,station,payment,valuation,utility,charged"
    assert len(lines) == 3


def _routed_doc():
    return instance_to_dict(generate(GenParams(n_evs=4, n_stations=2, horizon=10), seed=3))


@pytest.mark.parametrize("speed", [0.0, -1.0])
def test_nonpositive_speed_named(speed):
    doc = _routed_doc()
    doc["network"]["avg_speed"] = speed
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "network.avg_speed"


def test_edge_to_unknown_node_named():
    doc = _routed_doc()
    doc["network"]["edges"][1]["b"] = 99
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "network.edges[1].b"


def test_negative_discharge_rate_named():
    doc = _routed_doc()
    doc["evs"][2]["discharge_rate"] = -0.5
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == "evs[2].discharge_rate"


@pytest.mark.parametrize(
    "section, index, key",
    [("stations", 1, "location"), ("evs", 0, "start_location"), ("evs", 3, "end_location")],
)
def test_location_off_network_named(section, index, key):
    doc = _routed_doc()
    doc[section][index][key] = 99
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == f"{section}[{index}].{key}"
    # flat instances have no network and ignore locations
    del doc["network"]
    instance_from_dict(doc)


def test_routed_document_counts_the_ev_time_cost():
    doc = instance_to_dict(generate(DESK, 7))
    before = instance_from_dict(doc).request("a1")
    doc["evs"][0]["time_cost"] = 40
    after = instance_from_dict(doc).request("a1")
    assert after.per_station.keys() == before.per_station.keys()
    for sid, acc in before.per_station.items():
        assert after.access(sid).valuation == acc.valuation - 40
        assert after.access(sid).time_cost == acc.time_cost + 40
    doc["evs"][0]["time_cost"] = 1000000
    assert instance_from_dict(doc).request("a1").feasible_stations == frozenset()


@pytest.mark.parametrize("flat", [False, True], ids=["routed", "flat"])
def test_writer_emits_exactly_the_reader_keys(flat):
    # the network's sets and edges are written by hand; every other key from its table
    doc = instance_to_dict(generate(GenParams(n_evs=4, n_stations=2, horizon=10, flat=flat), seed=3))
    assert ("network" in doc) is not flat
    sections = [(doc, DOCUMENT_KEYS), (doc["time_grid"], TIME_GRID_KEYS)]
    sections += [(s, STATION_KEYS) for s in doc["stations"]] + [(e, EV_KEYS) for e in doc["evs"]]
    if not flat:
        sections += [(doc["network"], NETWORK_KEYS)] + [(e, EDGE_KEYS) for e in doc["network"]["edges"]]
    for section, table in sections:
        keys = {key for key, _, _ in table}
        assert set(section) == (keys - {"network"} if flat and table is DOCUMENT_KEYS else keys)


_MISSING = object()


def _set(doc: dict, key: str, value) -> None:
    """Set (or delete, for _MISSING) the value at a full key such as
    network.edges[1].km or stations[1].expected_demand[0]."""
    *path, last = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", key)]
    for p in path:
        doc = doc[p]
    if value is _MISSING:
        del doc[last]
    else:
        doc[last] = value


_INT_KEYS = ["imbalance_unit_cost", "time_grid.horizon_len", "stations[1].slots",
             "stations[1].expected_demand[0]", "evs[2].base_valuation", "network.per_walk_km",
             "network.edges[1].a"]
_FLOAT_KEYS = ["evs[2].discharge_rate", "network.avg_speed", "network.edges[1].km"]
_REQUIRED_KEYS = ["imbalance_unit_cost", "time_grid.horizon_len", "stations[1].slots",
                  "evs[2].energy_demand", "network.nodes", "network.edges[1].km"]
_SECTIONS = ["", "time_grid.", "stations[1].", "evs[2].", "network.", "network.edges[1]."]
_BAD_VALUES = (
    [(key, v) for key in _INT_KEYS for v in (2.5, 2.0, True, "3")]
    + [(key, v) for key in _FLOAT_KEYS for v in (math.nan, math.inf, True, "3")]
    + [(key, _MISSING) for key in _REQUIRED_KEYS]
    + [(section + "time_cst", 40) for section in _SECTIONS]
    + [("stations[1].id", 3), ("stations[1].expected_demand", "1111"), ("network.nodes", "3"),
       ("network.edges", {}), ("evs[2]", 3), ("scale", 1), ("scale", 100.0),
       ("format_version", "2"), ("format_version", 1), ("network", None)]
)


@pytest.mark.parametrize("key, value", _BAD_VALUES,
                         ids=[f"{k}={'missing' if v is _MISSING else repr(v)}" for k, v in _BAD_VALUES])
def test_bad_value_named_by_its_key(key, value):
    doc = _routed_doc()
    instance_from_dict(doc)
    _set(doc, key, value)
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == key


def test_float_key_takes_an_integer():
    doc = _routed_doc()
    doc["evs"][2]["discharge_rate"] = 2
    doc["network"]["edges"][1]["km"] = 3
    inst = instance_from_dict(doc)
    assert inst.evs[2].discharge_rate == 2.0 and inst.network.edges[1][2] == 3.0


@pytest.mark.parametrize("key, value, named", [
    ("evs[1].start_time", -5, "evs[1]"),
    ("evs[1].time_cost", -100000, "evs[1]"),
    ("stations[0].slots", -1, "stations[0]"),
    ("time_grid.horizon_len", 0, "time_grid"),
    ("imbalance_unit_cost", -5, "imbalance_unit_cost"),
    ("network.per_drive_point", -1, "network.per_drive_point"),
    ("network.per_walk_km", -1, "network.per_walk_km"),
])
def test_domain_rule_names_its_entry(key, value, named):
    # each rule lives in its type, which raises ValueError on its own
    doc = _routed_doc()
    _set(doc, key, value)
    with pytest.raises(FormatError) as exc:
        instance_from_dict(doc)
    assert exc.value.key == named
    assert isinstance(exc.value.__cause__, ValueError)
