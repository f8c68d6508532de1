"""Bitwise-deterministic results whatever the BLAS thread count."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import mlopf

# Hashes the flat, bilevel and trilevel coupling terms at fixed random duals,
# and the final setpoints and duals of 30 linear-model iterations with the
# flat and trilevel engines, on uv300 and on a 2,000-bus feeder.
SCRIPT = """
import hashlib
import numpy as np
from mlopf.coupling import FlatEngine, MultilevelEngine
from mlopf.feedergen import FeederSpec, generate
from mlopf.opf import SolverConfig, make_problem
from mlopf.sensitivity import build_sensitivity
from mlopf.solver import LinearVoltageModel, initial_state, run

digest = hashlib.sha256()
for spec, targets in ((FeederSpec(300, seed=0, load_scale=1.8), (90, 28)),
                      (FeederSpec(2000, seed=0, load_scale=0.1), (200, 50))):
    feeder = generate(spec, *targets)
    net, part = feeder.net, feeder.partition
    sens = build_sensitivity(net)
    engines = [FlatEngine(sens), MultilevelEngine(net, part, 1), MultilevelEngine(net, part, 2)]
    rng = np.random.default_rng(0)
    mu_up, mu_lo = rng.uniform(0, 1, net.n_flat), rng.uniform(0, 1, net.n_flat)
    for engine in engines:
        res = engine.compute(mu_up, mu_lo)
        digest.update(res.g_p.tobytes() + res.g_q.tobytes())
    problem = make_problem(net, sens, list(feeder.devices), feeder.background)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, max_iters=30)
    for engine in (engines[0], engines[2]):
        state = run(initial_state(problem, vmodel), problem, engine, vmodel, cfg).state
        for array in (state.z, state.duals.mu_upper, state.duals.mu_lower):
            digest.update(array.tobytes())
print(digest.hexdigest())
"""


def digest_with_threads(threads: int) -> str:
    env = dict(os.environ)
    src = str(Path(mlopf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_results_are_bitwise_equal_under_one_and_two_blas_threads():
    one = digest_with_threads(1)
    assert len(one) == 64
    assert digest_with_threads(2) == one
