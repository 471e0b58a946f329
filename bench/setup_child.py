"""Set-up of one workload in a fresh interpreter, up to its first op being ready.

Usage: python3 setup_child.py ROOT WORKLOAD INPUT

Imports numpy, then the qspoof modules the workload calls, then prepares
the first op's program objects (``load_config`` of a scenario file for
radar_cli, the validated ``HypothesisPair`` for dense_attack, the
``VerifyOptions`` for verify_battery).  Prints one JSON line with the
phase times; the parent times the whole child from spawn to exit.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
root, workload, arg = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))

import numpy  # noqa: E402

t_numpy = time.perf_counter()
if workload == "radar_cli":
    import qspoof.cli
    from qspoof.config import load_config

    t_qspoof = time.perf_counter()
    load_config(arg)
elif workload == "dense_attack":
    from qspoof import DensityOperator, HypothesisPair, helstrom_measurement, optimal_attack  # noqa: F401

    t_qspoof = time.perf_counter()
    with numpy.load(arg) as npz:
        tau = float(npz["tau"])
        HypothesisPair(DensityOperator(npz["rho0"]), DensityOperator(npz["rho1"]), 1 / (1 + tau), tau / (1 + tau))
elif workload == "verify_battery":
    from qspoof.config import VerifyOptions
    from qspoof.verify import run_verification  # noqa: F401

    t_qspoof = time.perf_counter()
    VerifyOptions(instances=int(arg), channel_instances=int(arg))
else:
    sys.exit(f"unknown workload {workload!r}")
t_ready = time.perf_counter()
print(json.dumps({"numpy_s": t_numpy - t0, "qspoof_s": t_qspoof - t_numpy, "prepare_s": t_ready - t_qspoof}))
