import dataclasses
import math

import pytest

from evmarket import GenParams, build_requests, generate, perturb_reports
from evmarket.experiments import DESK_CONTESTED
from evmarket.scenario import ResampleLimit
from evmarket.serialize import instance_to_dict

SMALL = GenParams(n_evs=12, n_stations=3, horizon=16, elec_cost=20, imbalance_unit_cost=5)


def test_same_seed_same_instance():
    a = generate(SMALL, seed=42)
    b = generate(SMALL, seed=42)
    assert instance_to_dict(a) == instance_to_dict(b)


def test_different_seeds_differ():
    a = generate(SMALL, seed=1)
    b = generate(SMALL, seed=2)
    assert instance_to_dict(a) != instance_to_dict(b)


def test_every_ev_has_a_feasible_station():
    for seed in range(10):
        inst = generate(SMALL, seed)
        for req in inst.requests:
            assert req.feasible_stations, req.ev.id
            for sid in req.feasible_stations:
                acc = req.access(sid)
                assert acc.departure - acc.arrival >= acc.charge_slots_needed


def test_parameter_ranges():
    inst = generate(SMALL, seed=3)
    assert len(inst.stations) == 3
    assert len(inst.requests) == 12
    arr_high = round(0.6 * SMALL.horizon)
    for ev in inst.evs:
        assert 0 <= ev.start_time <= arr_high
        assert 1 <= ev.energy_demand <= ev.park_duration
        assert ev.start_time + ev.park_duration <= SMALL.horizon
        assert ev.base_valuation <= 100 * ev.energy_demand
    for st in inst.stations:
        assert len(st.expected_demand) == SMALL.horizon
        assert all(1 <= d <= 3 for d in st.expected_demand)


def test_caps():
    p = GenParams(n_evs=20, n_stations=2, horizon=20, max_demand=2, max_park=4)
    inst = generate(p, seed=0)
    assert all(e.energy_demand <= 2 for e in inst.evs)
    assert all(e.park_duration <= 4 for e in inst.evs)


@pytest.mark.parametrize("field, low", [
    ("n_evs", 0), ("n_stations", 1), ("horizon", 1), ("slots", 0),
    ("elec_cost", 0), ("imbalance_unit_cost", 0), ("max_park", 1), ("max_demand", 1),
    ("value_per_unit_max", 0), ("per_drive_point", 0), ("per_walk_km", 0),
])
def test_params_no_market_can_honour_name_their_field(field, low):
    # without their rules, the last three would crash late, inside generate
    GenParams(**{field: low})
    with pytest.raises(ValueError, match=rf"^{field} must be >= {low}"):
        GenParams(**{field: low - 1})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_arrival_frac_must_be_finite(value):
    with pytest.raises(ValueError, match=r"^arrival_frac must be finite"):
        GenParams(arrival_frac=value)


def test_params_fields_are_the_ones_some_run_sets():
    # what no caller varies is a module constant, not a field
    assert [f.name for f in dataclasses.fields(GenParams)] == [
        "n_evs", "n_stations", "horizon", "slots", "elec_cost", "imbalance_unit_cost",
        "value_per_unit_max", "arrival_frac", "per_drive_point", "per_walk_km", "flat",
        "max_park", "max_demand",
    ]


def test_flat_mode_has_no_network():
    inst = generate(GenParams(n_evs=4, n_stations=2, horizon=8, flat=True), seed=0)
    assert inst.network is None
    for req in inst.requests:
        for sid, acc in req.per_station.items():
            assert acc.time_cost == 0


def test_resample_limit():
    # zero-valuation agents can never be feasible
    p = GenParams(n_evs=1, n_stations=2, horizon=10, value_per_unit_max=0)
    with pytest.raises(ResampleLimit):
        generate(p, seed=0)


def test_perturb_reports():
    inst = generate(SMALL, seed=7)
    reported, truth = perturb_reports(inst, liar_fraction=0.25, valuation_multiplier=1.8, seed=1)
    assert len(truth) == math.floor(0.25 * 12)
    for aid, true_v in truth.items():
        assert inst.request(aid).ev.base_valuation == true_v
        assert reported.request(aid).ev.base_valuation == round(true_v * 1.8)
    honest = set(r.ev.id for r in inst.requests) - set(truth)
    for aid in honest:
        assert reported.request(aid).ev.base_valuation == inst.request(aid).ev.base_valuation


def test_perturb_rebuilds_requests_from_the_reports():
    # a routed market: each liar's request is the one its report builds
    inst = generate(DESK_CONTESTED, 0)
    reported, truth = perturb_reports(inst, 0.25, 1.8, seed=0)
    assert truth and inst.network is not None
    rebuilt = build_requests(inst.network, reported.evs, inst.stations, inst.time_grid)
    assert list(reported.requests) == rebuilt
    for req in inst.requests:
        if req.ev.id not in truth:
            assert reported.request(req.ev.id) == req


def test_perturb_is_deterministic():
    inst = generate(SMALL, seed=7)
    _, t1 = perturb_reports(inst, 0.10, 1.80, seed=5)
    _, t2 = perturb_reports(inst, 0.10, 1.80, seed=5)
    assert t1 == t2
    with pytest.raises(ValueError):
        perturb_reports(inst, 1.5, 1.80, seed=5)
