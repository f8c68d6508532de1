"""Multi-level primal-dual OPF solver for radial multi-phase feeders."""

__version__ = "0.1.0"

from .network import (
    Bus,
    Line,
    Network,
    NetworkError,
    load_network,
    network_to_document,
    save_network,
)
from .sensitivity import (
    OMEGA,
    SensitivityMatrices,
    build_sensitivity,
    dv_dp_entry,
    dv_dq_entry,
    voltage_linear,
)
from .partition import (
    Area,
    PartitionHierarchy,
    Subarea,
    auto_partition,
    load_partition,
    partition_to_document,
    save_partition,
    subtree_ids,
    unclustered,
    validate_partition,
)
from .opf import (
    Device,
    DualState,
    Problem,
    ProblemError,
    SolverConfig,
    VoltageBounds,
    dual_update,
    lagrangian_value,
    load_problem,
    make_problem,
    saddle_residual,
)
from .coupling import (
    AggregateMessage,
    CouplingResult,
    EngineError,
    FlatEngine,
    FlowRecord,
    MultilevelEngine,
    PrivacyReport,
    make_engine,
    privacy_audit,
)
from .powerflow import (
    ModelDivergence,
    SweepError,
    VoltageSolution,
    backward_forward_sweep,
    compare_models,
)
from .solver import (
    LinearVoltageModel,
    RunResult,
    SolverError,
    SolverState,
    SweepVoltageModel,
    Trace,
    TraceRecord,
    initial_state,
    run,
    step,
)
from .feedergen import FeederSpec, GeneratedFeeder, feeder_documents, generate
from .bench import bench_sweep, bench_table, bench_csv, fit_loglog, two_level_feeder
