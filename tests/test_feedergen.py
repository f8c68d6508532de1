"""Synthetic feeder generation: determinism, phases, scenario shaping."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from mlopf.feedergen import FeederSpec, feeder_documents, generate
from mlopf.opf import ProblemError, make_problem
from mlopf.partition import validate_partition
from mlopf.powerflow import backward_forward_sweep
from mlopf.sensitivity import build_sensitivity


def test_same_spec_and_seed_reproduce_documents_byte_for_byte():
    spec = FeederSpec(n_buses=37, seed=7)
    docs1 = [json.dumps(d, sort_keys=True) for d in feeder_documents(generate(spec))]
    docs2 = [json.dumps(d, sort_keys=True) for d in feeder_documents(generate(spec))]
    assert docs1 == docs2


def test_different_seeds_differ():
    a = feeder_documents(generate(FeederSpec(n_buses=37, seed=1)))[0]
    b = feeder_documents(generate(FeederSpec(n_buses=37, seed=2)))[0]
    assert json.dumps(a) != json.dumps(b)


def test_zero_phase_drop_keeps_every_bus_three_phase():
    feeder = generate(FeederSpec(n_buses=24, seed=3, phase_drop=0.0))
    assert feeder.net.n_flat == 3 * 24
    assert all(len(b.phases) == 3 for b in feeder.net.buses)


def test_generated_feeder_passes_all_validation():
    for seed in range(5):
        feeder = generate(FeederSpec(n_buses=80, seed=seed))
        assert validate_partition(feeder.net, feeder.partition) == []


def test_phases_drop_monotonically():
    feeder = generate(FeederSpec(n_buses=120, seed=11, phase_drop=0.4))
    net = feeder.net
    for bus in net.buses:
        if bus.id == 0:
            continue
        parent_phases = set(net.bus(bus.parent).phases)
        assert set(bus.phases) <= parent_phases


def test_device_boxes_contain_preferences():
    feeder = generate(FeederSpec(n_buses=60, seed=2))
    for dev in feeder.devices:
        assert dev.p_min <= dev.p0 <= dev.p_max
        assert dev.q_min <= dev.q0 <= dev.q_max
    # every flat index is either a device slot or a background load
    covered = {(d.bus, d.phase) for d in feeder.devices} | set(feeder.background)
    assert len(covered) == feeder.net.n_flat


def test_heavy_load_scenario_is_largely_undervoltage():
    feeder = generate(FeederSpec(n_buses=300, seed=0, load_scale=1.8))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    sol = backward_forward_sweep(feeder.net, prob.p0, prob.q0)
    assert np.mean(np.sqrt(sol.v) < 0.95) >= 0.2


def test_mean_depth_grows_with_bus_count():
    depths = []
    for n in (50, 200):
        feeder = generate(FeederSpec(n_buses=n, seed=13))
        depths.append(float(feeder.net.depth.mean()))
    assert depths[1] > depths[0]


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        FeederSpec(n_buses=0)
    with pytest.raises(ValueError):
        FeederSpec(n_buses=10, phase_drop=1.5)
    for load_scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="load_scale"):
            FeederSpec(n_buses=10, load_scale=load_scale)


@pytest.mark.parametrize("v_min, v_max", [
    (float("nan"), 1.05), (0.95, float("nan")), (0.95, float("inf")),
    (1.05, 0.95), (0.0, 1.05),
])
def test_generate_rejects_voltage_limits_out_of_order(v_min, v_max):
    with pytest.raises(ProblemError, match="0 < vmin < vmax"):
        generate(FeederSpec(n_buses=10), v_min=v_min, v_max=v_max)


# sha256 of json.dumps of each document (network, devices, partition) of the
# benchmark's generated inputs. A drift in the generator or a writer changes
# the benchmark's workloads, so it must change these on purpose.
BENCHMARK_INPUTS = {
    "uv300": ((FeederSpec(300, seed=0, load_scale=1.8), 90, 28), (
        "4708556cdac2d00615c881c5aee2d15148bc3ef3984b7decfd90ce2863da1b9a",
        "da421a3a7ea67dc6af3767ad1fb39fc588021f7ce5e5bd14f34270e00d024427",
        "c149dce1428c4de7bc38d5ed759b84beb7299cb0eea32882c702149b7d4a8674",
    )),
    "gen4k": ((FeederSpec(4000, seed=0, load_scale=0.05), 400, 100), (
        "66eb4bdc2b7d4715580b4f3cc98d43821f3fa5106a6f16e2dde8febfbbd1f78f",
        "9d78b52ba6f40ce352346b44dac99ea42edae37077ada8be609b83b95a7597ba",
        "9cb1d77247d308a1a1681ad72ebfd1072584b26d2b1fb669613b543c0e6ac454",
    )),
}


@pytest.mark.parametrize("name", list(BENCHMARK_INPUTS))
def test_benchmark_input_documents_are_pinned(name):
    args, digests = BENCHMARK_INPUTS[name]
    docs = feeder_documents(generate(*args))
    assert [hashlib.sha256(json.dumps(doc).encode()).hexdigest() for doc in docs] == list(digests)
