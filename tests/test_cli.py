"""End-to-end command-line workflows."""

from __future__ import annotations

import json

import pytest

from mlopf import bench
from mlopf.bench import bench_sweep
from mlopf.cli import build_parser, main
from mlopf.coupling import FlowRecord, privacy_audit
from mlopf.feedergen import FeederSpec, feeder_documents, generate
from mlopf.network import load_network, save_network
from mlopf.opf import SolverConfig
from mlopf.partition import load_partition
from mlopf.sensitivity import build_sensitivity

from conftest import fig_feeder, refuse_dense_build


@pytest.fixture
def workspace(tmp_path):
    rc = main(
        [
            "gen", "--buses", "60", "--seed", "3", "--load-scale", "1.6",
            "--target-area-size", "15", "--target-subarea-size", "5",
            "--out", str(tmp_path / "feeder"),
        ]
    )
    assert rc == 0
    return tmp_path / "feeder"


def test_gen_writes_documents_and_manifest(workspace):
    for name in ("network.json", "devices.json", "partition.json", "manifest.json"):
        assert (workspace / name).exists()
    manifest = json.loads((workspace / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["arguments"]["seed"] == 3


def test_gen_defaults_are_the_feeder_spec_defaults(tmp_path):
    assert main(["gen", "--buses", "40", "--seed", "3", "--out", str(tmp_path)]) == 0
    expected = feeder_documents(generate(FeederSpec(n_buses=40, seed=3)))
    for name, doc in zip(("network.json", "devices.json", "partition.json"), expected):
        assert json.loads((tmp_path / name).read_text()) == json.loads(json.dumps(doc))


def test_solve_defaults_are_the_solver_config_defaults():
    args = build_parser().parse_args(["solve", "--network", "n", "--devices", "d", "--out", "o"])
    parsed = SolverConfig(
        step_primal=args.step_primal, step_dual=args.step_dual, eta=args.eta,
        max_iters=args.iters, residual_tol=args.tol,
    )
    assert parsed == SolverConfig()


@pytest.mark.parametrize("flags, text", [
    (["--load-scale", "nan"], "load_scale"),
    (["--load-scale", "inf"], "load_scale"),
    (["--vmin", "nan"], "0 < vmin < vmax"),
    (["--vmax", "inf"], "0 < vmin < vmax"),
])
def test_gen_rejects_non_finite_inputs(tmp_path, capsys, flags, text):
    assert main(["gen", "--buses", "30", *flags, "--out", str(tmp_path / "g")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "validation"
    assert text in record["message"]
    assert not (tmp_path / "g" / "devices.json").exists()


def test_validate_accepts_generated_documents(workspace):
    rc = main(
        [
            "validate",
            "--network", str(workspace / "network.json"),
            "--partition", str(workspace / "partition.json"),
            "--devices", str(workspace / "devices.json"),
        ]
    )
    assert rc == 0


def test_validate_devices_builds_no_dense_matrices(workspace, tmp_path, monkeypatch):
    refuse_dense_build(monkeypatch)
    network = str(workspace / "network.json")
    assert main(["validate", "--network", network,
                 "--devices", str(workspace / "devices.json")]) == 0
    doc = json.loads((workspace / "devices.json").read_text())
    doc["devices"][0]["pmin"] = doc["devices"][0]["pmax"] + 1.0  # empty box
    bad = tmp_path / "bad_devices.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--network", network, "--devices", str(bad)]) == 2


def test_validate_rejects_malformed_network(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a"], "parent": 2},
            {"id": 2, "phases": ["a"], "parent": 1},
        ],
        "lines": [
            {"from": 2, "to": 1, "z": {"aa": [0.01, 0.0]}},
            {"from": 1, "to": 2, "z": {"aa": [0.01, 0.0]}},
        ],
    }))
    assert main(["validate", "--network", str(bad)]) == 2


def test_validate_rejects_duplicate_phases(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a", "a"], "parent": 0},
        ],
        "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
    }))
    assert main(["validate", "--network", str(bad)]) == 2
    assert "distinct" in capsys.readouterr().err


MALFORMED_PARTITIONS = {
    "area-without-root": {"areas": [{}]},
    "subarea-not-an-object": {"areas": [{"root": 1, "subareas": [5]}]},
    "area-not-an-object": {"areas": [7]},
    "root-not-a-number": {"areas": [{"root": "x"}]},
    "root-a-fraction": {"areas": [{"root": 3.7}]},
    "subarea-root-a-bool": {"areas": [{"root": 1, "subareas": [{"root": True}]}]},
    "root-a-string": {"areas": [{"root": "1"}]},
    "document-is-an-array": [{"root": 1}],
}


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("name", sorted(MALFORMED_PARTITIONS))
def test_malformed_partition_is_validation_error(workspace, tmp_path, capsys, command, name):
    bad = tmp_path / "partition.json"
    bad.write_text(json.dumps(MALFORMED_PARTITIONS[name]))
    args = [
        command,
        "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--partition", str(bad),
    ]
    if command == "solve":
        args += ["--engine", "bilevel", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "validation"


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_device_document_that_is_not_an_object_is_validation_error(
    workspace, tmp_path, capsys, command
):
    bad = tmp_path / "devices.json"
    bad.write_text(json.dumps([{"bus": 1, "phase": "a"}]))
    args = [command, "--network", str(workspace / "network.json"), "--devices", str(bad)]
    if command == "solve":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "device document must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("document,field", [
    ("network", "buses"),
    ("network", "lines"),
    ("partition", "areas"),
    ("devices", "devices"),
    ("devices", "background"),
])
def test_non_array_top_level_field_is_validation_error(
    workspace, tmp_path, capsys, document, field
):
    doc = json.loads((workspace / f"{document}.json").read_text())
    doc[field] = 5
    assert _validate_with(workspace, tmp_path, document, doc) == 2
    err = capsys.readouterr().err
    assert f"document field '{field}' must be a JSON array" in err
    assert "Traceback" not in err


def _validate_with(workspace, tmp_path, document, doc):
    """Exit code of validate on the workspace documents, with doc in place of one."""
    (tmp_path / f"{document}.json").write_text(json.dumps(doc))
    paths = {
        name: str((tmp_path if name == document else workspace) / f"{name}.json")
        for name in ("network", "partition", "devices")
    }
    return main(["validate"] + [a for name, path in paths.items() for a in (f"--{name}", path)])


@pytest.mark.parametrize("document,edit,where,key", [
    ("network", lambda d: {**d, "base_v_sqared": 1.0}, "network document", "base_v_sqared"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"parnet": 0}), "malformed bus entry",
     "parnet"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"Z": {}}), "malformed line entry", "Z"),
    ("devices", lambda d: {**d, "vmn": 0.9}, "device document", "vmn"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"Wp": 2.0}), "malformed device entry",
     "Wp"),
    ("devices", lambda d: _with_entry(d, "background", 0, {"pp": 0.0}),
     "malformed background entry", "pp"),
    ("partition", lambda d: {**d, "area": []}, "partition document", "area"),
    ("partition", lambda d: _with_entry(d, "areas", 0, {"subarea": []}), "malformed area entry",
     "subarea"),
    ("partition", lambda d: _with_entry(d, "areas", 0, {"subareas": [{"root": 1, "size": 3}]}),
     "malformed area entry", "size"),
], ids=["network", "bus", "line", "devices", "device", "background", "partition", "area",
        "subarea"])
def test_unknown_document_key_is_validation_error(
    workspace, tmp_path, capsys, document, edit, where, key
):
    doc = edit(json.loads((workspace / f"{document}.json").read_text()))
    assert _validate_with(workspace, tmp_path, document, doc) == 2
    err = capsys.readouterr().err
    assert where in err
    assert f"has unknown key {key!r}" in err
    assert "Traceback" not in err


def test_duplicate_background_entry_is_validation_error(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "devices.json").read_text())
    first = doc["background"][0]
    doc["background"].append({**first, "p": first["p"] - 0.1})
    assert _validate_with(workspace, tmp_path, "devices", doc) == 2
    err = capsys.readouterr().err
    assert f"duplicate background entry at {first['bus']}:{first['phase']}" in err
    assert "Traceback" not in err


def _with_entry(doc, key, k, fields):
    """doc with fields set in entry k of its array under key."""
    entries = list(doc[key])
    entries[k] = {**entries[k], **fields}
    return {**doc, key: entries}


def _with_entry_list(doc, key, entry):
    """doc with entry appended to its array under key."""
    return {**doc, key: [*doc[key], entry]}


def _without(doc, key, k, field):
    """doc with field left out of entry k of its array under key."""
    entries = list(doc[key])
    entries[k] = {name: value for name, value in entries[k].items() if name != field}
    return {**doc, key: entries}


def _with_first_line_aa(doc, aa):
    return _with_entry(doc, "lines", 0, {"z": {**doc["lines"][0]["z"], "aa": aa}})


@pytest.mark.parametrize("document,edit,message", [
    ("devices", lambda d: {**d, "vmin": None}, "field 'vmin' must be a number"),
    ("devices", lambda d: {**d, "vmin": [0.95]}, "field 'vmin' must be a number"),
    ("devices", lambda d: {**d, "vmax": None}, "field 'vmax' must be a number"),
    ("devices", lambda d: {**d, "vmax": [1.05]}, "field 'vmax' must be a number"),
    ("devices", lambda d: {**d, "vmin": -0.96}, "0 < vmin < vmax"),
    ("network", lambda d: {**d, "base_v_squared": [1.0]},
     "field 'base_v_squared' must be a number"),
    ("network", lambda d: {**d, "base_v_squared": float("nan")},
     "base_v_squared must be positive and finite"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"z": [[0.01, 0.02]]}),
     "field 'z' must be a JSON object"),
    ("network", lambda d: _with_first_line_aa(d, [float("nan"), 0.01]), "non-finite impedance"),
    ("network", lambda d: _with_first_line_aa(d, [0.01, float("inf")]), "non-finite impedance"),
    ("network", lambda d: _with_first_line_aa(d, [float("-inf"), 0.01]), "non-finite impedance"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"id": 1.9}), "malformed bus entry"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"id": True}), "malformed bus entry"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"parent": 0.2}), "malformed bus entry"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"to": 1.5}), "malformed line entry"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"bus": d["devices"][0]["bus"] + 0.5}),
     "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "background", 0, {"bus": True}),
     "malformed background entry"),
    ("setpoints", lambda d: {"q": d["q"]}, "field 'p' must be a JSON object"),
    ("setpoints", lambda d: [d], "setpoints document must be a JSON object"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"id": str(d["buses"][1]["id"])}),
     "malformed bus entry"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"parent": str(d["buses"][1]["parent"])}),
     "malformed bus entry"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"from": str(d["lines"][0]["from"])}),
     "malformed line entry"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"to": str(d["lines"][0]["to"])}),
     "malformed line entry"),
    ("network", lambda d: {**d, "base_v_squared": "1.0"},
     "field 'base_v_squared' must be a number"),
    ("devices", lambda d: {**d, "vmin": "0.9"}, "field 'vmin' must be a number"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"p0": "0"}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"q0": False}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"qmax": True}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "background", 0, {"p": "0.01"}),
     "malformed background entry"),
    ("network", lambda d: _with_first_line_aa(d, [True, 0]), "malformed line entry"),
    ("setpoints", lambda d: {**d, "p": {"1:a": "0.1"}}, "field '1:a' must be a number"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"phase": 0}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"phase": True}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"phase": 1.0}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"phase": "A"}), "malformed device entry"),
    ("devices", lambda d: _with_entry(d, "background", 0, {"phase": 0}),
     "malformed background entry"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"phases": "abc"}), "malformed bus entry"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"phases": [True]}), "malformed bus entry"),
    ("setpoints", lambda d: {**d, "pp": {"1:a": 5.0}}, "setpoints document has unknown key 'pp'"),
    ("network", lambda d: _with_entry_list(d, "buses", 5),
     "malformed bus entry 5: entry must be a JSON object"),
    ("network", lambda d: _with_entry_list(d, "lines", 5),
     "malformed line entry 5: entry must be a JSON object"),
    ("devices", lambda d: _with_entry_list(d, "devices", 5),
     "malformed device entry 5: entry must be a JSON object"),
    ("devices", lambda d: _with_entry_list(d, "background", 5),
     "malformed background entry 5: entry must be a JSON object"),
    ("network", lambda d: _with_first_line_aa(d, [0.01]), "impedance 'aa' must be [re, im]"),
    ("network", lambda d: _with_first_line_aa(d, 0.01), "impedance 'aa' must be [re, im]"),
    ("network", lambda d: _without(d, "buses", 1, "id"), "}: 'id'"),
    ("network", lambda d: _without(d, "buses", 1, "phases"), "}: 'phases'"),
    ("network", lambda d: _without(d, "lines", 0, "to"), "}: 'to'"),
    ("devices", lambda d: _without(d, "devices", 0, "p0"), "}: 'p0'"),
    ("devices", lambda d: _without(d, "background", 0, "p"), "}: 'p'"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"p0": float("nan")}),
     "preference outside its box"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"wp": float("nan")}),
     "weights must be positive and finite"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"bus": 8, "phase": "c"}),
     "bus 8 does not carry phase c"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"bus": 99}), "unknown bus id 99"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"id": 2**63}),
     "bus id 9223372036854775808 is outside [0, 2**63 - 1]"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"id": 1e20}),
     "bus id 1e+20 is outside [0, 2**63 - 1]"),
    ("network", lambda d: _with_entry(d, "buses", 1, {"parent": 2**63}),
     "bus id 9223372036854775808 is outside [0, 2**63 - 1]"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"from": 1e20}),
     "bus id 1e+20 is outside [0, 2**63 - 1]"),
    ("network", lambda d: _with_entry(d, "lines", 0, {"to": 2**63}),
     "bus id 9223372036854775808 is outside [0, 2**63 - 1]"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"bus": 1e20}),
     "bus id 1e+20 is outside [0, 2**63 - 1]"),
    ("devices", lambda d: _with_entry(d, "background", 0, {"bus": 2**63}),
     "bus id 9223372036854775808 is outside [0, 2**63 - 1]"),
    ("devices", lambda d: _with_entry(d, "devices", 0, {"qmax": 10**400}),
     "is beyond the float range"),
], ids=[
    "vmin-null", "vmin-list", "vmax-null", "vmax-list", "vmin-negative",
    "base-v-list", "base-v-nan", "z-list", "z-nan", "z-inf", "z-neg-inf",
    "bus-id-fraction", "bus-id-bool", "parent-fraction", "line-end-fraction",
    "device-bus-fraction", "background-bus-bool", "setpoints-without-p", "setpoints-list",
    "bus-id-string", "parent-string", "line-from-string", "line-to-string", "base-v-string",
    "vmin-string", "device-p0-string", "device-q0-bool", "device-qmax-bool",
    "background-p-string", "z-bool", "setpoint-string",
    "device-phase-zero", "device-phase-bool", "device-phase-float", "device-phase-upper",
    "background-phase-zero", "bus-phases-string", "bus-phases-bool", "setpoints-unknown-key",
    "bus-not-object", "line-not-object", "device-not-object", "background-not-object",
    "z-one-part", "z-number", "bus-without-id", "bus-without-phases", "line-without-to",
    "device-without-p0", "background-without-p", "device-p0-nan", "device-wp-nan",
    "device-absent-phase", "device-unknown-bus", "bus-id-2**63", "bus-id-1e20",
    "parent-2**63", "line-from-1e20", "line-to-2**63", "device-bus-1e20",
    "background-bus-2**63", "device-qmax-beyond-float",
])
def test_malformed_scalar_field_is_validation_error(
    workspace, tmp_path, capsys, document, edit, message
):
    (workspace / "setpoints.json").write_text(json.dumps({"p": {}, "q": {}}))
    doc = json.loads((workspace / f"{document}.json").read_text())
    (tmp_path / f"{document}.json").write_text(json.dumps(edit(doc)))
    paths = {
        name: str((tmp_path if name == document else workspace) / f"{name}.json")
        for name in ("network", "devices", "setpoints")
    }
    args = ["validate", "--network", paths["network"], "--devices", paths["devices"]]
    if document == "setpoints":
        args = ["compare"] + args[1:] + ["--setpoints", paths["setpoints"],
                                         "--out", str(tmp_path / "cmp")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# Root-level faults on the figure feeder, whose area at 21 holds the
# subtrees at 22 (with 23 below it) and 27; 18 lies in the area at 17.
ROOT_FAULTS = {
    "substation-root": ([{"root": 0}], "area 0: the substation cannot root an area"),
    "unknown-root": ([{"root": 99}], "area 0: unknown bus id 99"),
    "nested-area-roots": (
        [{"root": 21}, {"root": 27}], "area 1: bus 27 already belongs to area 0"
    ),
    "repeated-area-root": (
        [{"root": 17}, {"root": 17}], "area 1: bus 17 already belongs to area 0"
    ),
    "subarea-root-outside-its-area": (
        [{"root": 21, "subareas": [{"root": 18}]}],
        "area 0 subarea 0: root 18 is outside the area",
    ),
    "nested-subarea-roots": (
        [{"root": 21, "subareas": [{"root": 22}, {"root": 23}]}],
        "area 0 subarea 1: bus 23 already belongs to area 0 subarea 0",
    ),
}


@pytest.mark.parametrize("name", list(ROOT_FAULTS))
def test_validate_rejects_root_level_partition_faults(tmp_path, capsys, name):
    areas, message = ROOT_FAULTS[name]
    save_network(fig_feeder(), tmp_path / "network.json")
    (tmp_path / "partition.json").write_text(json.dumps({"areas": areas}))
    args = [
        "validate", "--network", str(tmp_path / "network.json"),
        "--partition", str(tmp_path / "partition.json"),
    ]
    assert main(args) == 2
    assert f"violation: {message}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("feeder,targets,line", [
    ("uv300", ("90", "28"), "2 areas, 119 unclustered buses"),
    ("fig", ("4", "2"), "3 areas, 8 unclustered buses"),
    ("fig", ("40", "0"), "0 areas, 23 unclustered buses"),
])
def test_partition_command_counts_unclustered_buses(tmp_path, capsys, feeder, targets, line):
    network = tmp_path / "network.json"
    if feeder == "fig":
        save_network(fig_feeder(), network)
    else:
        assert main(["gen", "--buses", "300", "--seed", "0", "--load-scale", "1.8",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    args = ["partition", "--network", str(network),
            "--target-area-size", targets[0], "--target-subarea-size", targets[1]]
    assert main(args) == 0
    assert capsys.readouterr().err.splitlines() == [line]


def test_partition_command_writes_hierarchy(workspace, tmp_path):
    out = tmp_path / "part.json"
    rc = main(
        [
            "partition", "--network", str(workspace / "network.json"),
            "--target-area-size", "12", "--target-subarea-size", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "areas" in doc


def solve(workspace, outdir, *extra):
    args = [
        "solve",
        "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--partition", str(workspace / "partition.json"),
        "--iters", "300",
        "--step-primal", "5e-3", "--step-dual", "5e-2",
        "--out", str(outdir),
        *extra,
    ]
    return main(args)


def test_solve_outputs_and_engine_agreement(workspace, tmp_path):
    assert solve(workspace, tmp_path / "flat", "--engine", "flat") == 0
    assert solve(workspace, tmp_path / "tri", "--engine", "trilevel") == 0
    s_flat = json.loads((tmp_path / "flat" / "summary.json").read_text())
    s_tri = json.loads((tmp_path / "tri" / "summary.json").read_text())
    rel = abs(s_flat["final_objective"] - s_tri["final_objective"]) / (
        1e-30 + abs(s_flat["final_objective"])
    )
    assert rel < 1e-6
    assert s_tri["total_coupling_ops"] < s_flat["total_coupling_ops"]
    for name in ("trace.csv", "setpoints.json", "summary.json", "manifest.json"):
        assert (tmp_path / "flat" / name).exists()


def test_solve_trace_is_reproducible(workspace, tmp_path):
    assert solve(workspace, tmp_path / "a", "--engine", "bilevel") == 0
    assert solve(workspace, tmp_path / "b", "--engine", "bilevel") == 0

    def stable(path):
        rows = (path / "trace.csv").read_text().strip().split("\n")
        return [",".join(r.split(",")[:-1]) for r in rows]  # drop timing column

    assert stable(tmp_path / "a") == stable(tmp_path / "b")


def test_solve_zero_iterations_single_record(workspace, tmp_path):
    args = [
        "solve",
        "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--iters", "0", "--engine", "flat",
        "--out", str(tmp_path / "zero"),
    ]
    assert main(args) == 0
    rows = (tmp_path / "zero" / "trace.csv").read_text().strip().split("\n")
    assert len(rows) == 2  # header + initial record
    assert rows[1].startswith("0,")


def test_solve_audit_report(workspace, tmp_path):
    assert solve(workspace, tmp_path / "aud", "--engine", "trilevel", "--audit") == 0
    summary = json.loads((tmp_path / "aud" / "summary.json").read_text())
    assert summary["audit_violations"] == []
    assert summary["audit_global_access"] is False
    lines = (tmp_path / "aud" / "audit.jsonl").read_text().strip().split("\n")
    events = [json.loads(line) for line in lines]
    assert any(e["event"] == "aggregate" for e in events)

    assert solve(workspace, tmp_path / "audflat", "--engine", "flat", "--audit") == 0
    flat_summary = json.loads((tmp_path / "audflat" / "summary.json").read_text())
    assert flat_summary["audit_global_access"] is True


@pytest.mark.parametrize("engine", ["bilevel", "trilevel"])
def test_the_summary_verdict_is_the_audit_of_audit_jsonl(workspace, tmp_path, engine):
    out = tmp_path / "aud"
    assert solve(workspace, out, "--engine", engine, "--audit", "--iters", "20") == 0
    *events, applies = map(json.loads, (out / "audit.jsonl").read_text().splitlines())
    net = load_network(workspace / "network.json")
    report = privacy_audit(
        FlowRecord(engine, events), net, load_partition(workspace / "partition.json", net)
    )
    summary = json.loads((out / "summary.json").read_text())
    assert report.violations == summary["audit_violations"] == []
    assert report.global_access is summary["audit_global_access"] is False
    assert report.events_checked == len(events) > 0
    assert applies == {"event": "applies", "count": 21}


def test_solve_audit_without_a_partition_uses_the_auto_partition(workspace, tmp_path):
    out = tmp_path / "auto"
    args = [
        "solve", "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--engine", "trilevel", "--audit", "--iters", "20", "--out", str(out),
    ]
    assert main(args) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audit_violations"] == []
    assert summary["audit_global_access"] is False
    events = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]
    assert any(e["event"] == "aggregate" for e in events)


def test_solve_nonconvergence_exit_code(workspace, tmp_path):
    args = [
        "solve",
        "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--iters", "2", "--tol", "1e-12", "--require-convergence",
        "--out", str(tmp_path / "nc"),
    ]
    assert main(args) == 3


def test_solve_rejects_a_non_positive_starting_voltage(tmp_path, capsys):
    feeder = tmp_path / "feeder"
    assert main(["gen", "--buses", "60", "--seed", "3", "--load-scale", "20",
                 "--out", str(feeder)]) == 0
    args = [
        "solve",
        "--network", str(feeder / "network.json"),
        "--devices", str(feeder / "devices.json"),
        "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "validation"
    assert "at 54:a" in record["message"]


@pytest.mark.parametrize("flag, name", [
    ("--step-primal", "step_primal"), ("--step-dual", "step_dual"),
    ("--eta", "eta"), ("--tol", "residual_tol"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_rejects_a_non_finite_setting(workspace, tmp_path, capsys, flag, name, value):
    assert solve(workspace, tmp_path / "bad", flag, value) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "validation"
    assert name in record["message"]


@pytest.mark.parametrize("model", ["linear", "sweep"])
def test_solve_rejects_a_non_finite_background_injection(workspace, tmp_path, capsys, model):
    doc = json.loads((workspace / "devices.json").read_text())
    entry = doc["background"][0]
    entry["p"] = float("nan")
    bad = tmp_path / "devices.json"
    bad.write_text(json.dumps(doc))
    args = [
        "solve", "--network", str(workspace / "network.json"), "--devices", str(bad),
        "--voltage-model", model, "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "validation"
    label = f"{entry['bus']}:{entry['phase']}"
    assert f"non-finite background injection at {label}" in record["message"]


def test_solve_missing_file_is_validation_error(tmp_path, capsys):
    args = [
        "solve", "--network", str(tmp_path / "nope.json"),
        "--devices", str(tmp_path / "nope2.json"),
        "--out", str(tmp_path / "x"),
    ]
    assert main(args) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation",
        "message": f"cannot read network document {tmp_path / 'nope.json'}: "
                   "No such file or directory",
    }


@pytest.mark.parametrize("flag", ["--network", "--partition"])
def test_validate_of_an_unreadable_document_is_a_validation_error(
    workspace, tmp_path, capsys, flag
):
    # A directory and text that is not UTF-8 are input faults like a
    # missing file; the message names the document and its path.
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    for path in (tmp_path, binary):
        paths = {"--network": workspace / "network.json",
                 "--partition": workspace / "partition.json", flag: path}
        assert main(["validate", *(str(x) for pair in paths.items() for x in pair)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert record["message"].startswith(f"cannot read {flag[2:]} document {path}: ")


def test_bench_single_row_consistency(tmp_path):
    rc = main(
        [
            "bench", "--sizes", "64", "--engines", "flat,bilevel",
            "--iters", "5", "--out", str(tmp_path / "bench"),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "bench" / "bench.csv").read_text().strip().split("\n")
    assert rows[0].startswith("n,areas,engine")
    assert len(rows) == 3
    flat_row = rows[1].split(",")
    bi_row = rows[2].split(",")
    assert flat_row[2] == "flat" and bi_row[2] == "bilevel"
    assert int(bi_row[4]) < int(flat_row[4])  # coupling op counts


def test_bench_without_flat_never_builds_the_dense_matrices(monkeypatch):
    def counts(rows):
        return [(r.n, r.engine, r.iters, r.coupling_ops) for r in rows if r.engine != "flat"]

    dense = bench_sweep([64, 128], ["flat", "bilevel", "trilevel"], 5, 4, seed=0)
    refuse_dense_build(monkeypatch)
    light = bench_sweep([64, 128], ["bilevel", "trilevel"], 5, 4, seed=0)
    assert counts(light) == counts(dense)
    assert len(light) == 4


def test_bench_ratios_cover_engines_listed_before_flat():
    rows = bench_sweep([64], ["bilevel", "flat"], 5, 4, seed=0)
    bi, flat = rows
    assert (bi.engine, flat.engine) == ("bilevel", "flat")
    assert bi.ratio_vs_flat == flat.coupling_ns / bi.coupling_ns
    assert flat.ratio_vs_flat == 1.0


def test_bench_rejects_an_unknown_engine_before_any_solve(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a bench solve ran")

    monkeypatch.setattr(bench, "run", refuse)
    rc = main(["bench", "--sizes", "2048,64", "--engines", "flat,foo", "--iters", "5"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "message": "unknown engine 'foo'",
    }


def test_compare_emits_csv(workspace, tmp_path):
    rc = main(
        [
            "compare",
            "--network", str(workspace / "network.json"),
            "--devices", str(workspace / "devices.json"),
            "--out", str(tmp_path / "cmp"),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "cmp" / "compare.csv").read_text().strip().split("\n")
    assert rows[0] == "flat_index,v_linear,v_nonlinear,diff"
    assert len(rows) > 10


@pytest.mark.parametrize("key", [
    "1", "x:a", "1:d", "99999:a", "1:a:b", "1_0:a", " 1:a", "01:a", "+1:a",
])
def test_compare_setpoint_key_must_name_a_bus_and_phase(workspace, tmp_path, capsys, key):
    setpoints = tmp_path / "setpoints.json"
    setpoints.write_text(json.dumps({"p": {key: 0.1}, "q": {}}))
    args = [
        "compare",
        "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--setpoints", str(setpoints),
        "--out", str(tmp_path / "cmp"),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"setpoints document key {key!r}" in err
    assert "Traceback" not in err


def test_solve_summary_counts_sweeps_in_feedback_mode(workspace, tmp_path):
    assert solve(workspace, tmp_path / "sw", "--engine", "flat", "--voltage-model", "sweep") == 0
    summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
    assert isinstance(summary["sweeps"], int)
    assert summary["sweeps"] >= summary["iterations"] + 1
    assert solve(workspace, tmp_path / "lin", "--engine", "flat") == 0
    summary = json.loads((tmp_path / "lin" / "summary.json").read_text())
    assert "sweeps" not in summary


def test_solve_rejects_a_non_finite_device_weight(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "devices.json").read_text())
    device = doc["devices"][0]
    device["wp"] = float("nan")
    bad = tmp_path / "devices.json"
    bad.write_text(json.dumps(doc))
    args = [
        "solve", "--network", str(workspace / "network.json"), "--devices", str(bad),
        "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "validation"
    assert f"device at bus {device['bus']}: weights must be positive" in record["message"]


def without_timing(outdir):
    """Every output file of a run, with the timing fields dropped."""
    files = {}
    for path in sorted(outdir.iterdir()):
        text = path.read_text()
        if path.name == "trace.csv":
            text = [row.rsplit(",", 1)[0] for row in text.splitlines()]
        elif path.name == "summary.json":
            text = json.loads(text)
            del text["total_coupling_ns"], text["wall_ns"]
        files[path.name] = text
    return files


def prebuilt_sensitivity(net):
    """build_sensitivity with R and X built before the caller reads them."""
    sens = build_sensitivity(net)
    assert sens.r.shape == sens.x.shape == (net.n_flat, net.n_flat)
    return sens


def test_trilevel_solve_and_compare_build_no_dense_matrices(workspace, tmp_path, monkeypatch):
    # The reference runs build the dense R and X before either command
    # reads the model; the checked runs may not build them and must write
    # the same outputs.
    for command, extra in (
        ("solve", ["--partition", str(workspace / "partition.json"), "--engine", "trilevel",
                   "--iters", "50", "--audit"]),
        ("compare", []),
    ):
        out = tmp_path / command
        args = [command, "--network", str(workspace / "network.json"),
                "--devices", str(workspace / "devices.json"), *extra, "--out", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr("mlopf.cli.build_sensitivity", prebuilt_sensitivity)
            assert main(args) == 0
        dense = without_timing(out)
        with monkeypatch.context() as patch:
            refuse_dense_build(patch)
            assert main(args) == 0
        assert without_timing(out) == dense


def test_flat_solve_writes_what_it_wrote_with_built_matrices(
    workspace, tmp_path, monkeypatch, dense_builds
):
    # solve hands every engine a model whose R and X are not built yet; the
    # flat engine's constructor builds them, once, and the outputs match a
    # run that built them before solve read the model.
    out = tmp_path / "flat"
    args = ["solve", "--network", str(workspace / "network.json"),
            "--devices", str(workspace / "devices.json"), "--engine", "flat",
            "--iters", "50", "--audit", "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr("mlopf.cli.build_sensitivity", prebuilt_sensitivity)
        assert main(args) == 0
    assert len(dense_builds) == 1
    dense = without_timing(out)
    assert main(args) == 0
    assert len(dense_builds) == 2
    assert without_timing(out) == dense


def test_two_level_feeder_needs_a_bus_per_area():
    with pytest.raises(ValueError, match="^need at least one bus per area$"):
        bench.two_level_feeder(3, 4, 1, seed=0)


def test_solve_with_an_invalid_partition_writes_error_json(workspace, tmp_path, capsys):
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"areas": [{"root": 0}]}))
    out = tmp_path / "run"
    rc = main([
        "solve", "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"), "--partition", str(partition),
        "--engine", "bilevel", "--iters", "1", "--out", str(out),
    ])
    assert rc == 2
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "validation", "message": "area 0: the substation cannot root an area"}
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == record
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_solve_whose_sweep_fails_exits_1_with_a_solver_record(tmp_path, capsys):
    net_doc = {
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a"], "parent": 0},
        ],
        "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
    }
    device_doc = {"background": [{"bus": 1, "phase": "a", "p": -60.0, "q": -30.0}]}
    (tmp_path / "network.json").write_text(json.dumps(net_doc))
    (tmp_path / "devices.json").write_text(json.dumps(device_doc))
    rc = main([
        "solve", "--network", str(tmp_path / "network.json"),
        "--devices", str(tmp_path / "devices.json"), "--voltage-model", "sweep",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "solver"
    assert record["message"].startswith("voltage model failed at the initial point: ")
    assert not (tmp_path / "run").exists()
