"""End-to-end command-line workflows."""

from __future__ import annotations

import json

import pytest

from mlopf.cli import main


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
    def refuse(net):
        raise AssertionError("validate built the dense sensitivities")

    monkeypatch.setattr("mlopf.cli.build_sensitivity", refuse)
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
    (tmp_path / f"{document}.json").write_text(json.dumps(doc))
    paths = {
        name: str((tmp_path if name == document else workspace) / f"{name}.json")
        for name in ("network", "partition", "devices")
    }
    args = ["validate"] + [a for name, path in paths.items() for a in (f"--{name}", path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"document field '{field}' must be a JSON array" in err
    assert "Traceback" not in err


def _with_first_line_z(doc, z):
    return {**doc, "lines": [{**doc["lines"][0], "z": z}] + doc["lines"][1:]}


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
    ("network", lambda d: _with_first_line_z(d, [[0.01, 0.02]]), "field 'z' must be a JSON object"),
    ("setpoints", lambda d: {"q": d["q"]}, "field 'p' must be a JSON object"),
    ("setpoints", lambda d: [d], "setpoints document must be a JSON object"),
], ids=[
    "vmin-null", "vmin-list", "vmax-null", "vmax-list", "vmin-negative",
    "base-v-list", "base-v-nan", "z-list", "setpoints-without-p", "setpoints-list",
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


def test_solve_nonconvergence_exit_code(workspace, tmp_path):
    args = [
        "solve",
        "--network", str(workspace / "network.json"),
        "--devices", str(workspace / "devices.json"),
        "--iters", "2", "--tol", "1e-12", "--require-convergence",
        "--out", str(tmp_path / "nc"),
    ]
    assert main(args) == 3


def test_solve_missing_file_is_validation_error(tmp_path):
    args = [
        "solve", "--network", str(tmp_path / "nope.json"),
        "--devices", str(tmp_path / "nope2.json"),
        "--out", str(tmp_path / "x"),
    ]
    assert main(args) == 1 or main(args) == 2


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


@pytest.mark.parametrize("key", ["1", "x:a", "1:d", "99999:a", "1:a:b"])
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
