import io
import json

import pytest

from evmarket import GenParams, generate, build_model, price_coop, solve_exact
from evmarket.serialize import (
    FormatError,
    allocation_to_dict,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    write_pricing_csv,
)


def test_roundtrip(tmp_path):
    inst = generate(GenParams(n_evs=6, n_stations=2, horizon=10), seed=4)
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    again = load_instance(str(path))
    assert instance_to_dict(again) == instance_to_dict(inst)
    assert again == inst


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
    assert exc.value.key == "slots"


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
