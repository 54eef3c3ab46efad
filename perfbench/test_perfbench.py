"""The benchmark's own checks (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Two traced runs of the same seed must write byte-identical counter
fingerprints; the oracle must agree with plain integer arithmetic; the
stream must be a seeded order of a seed-independent pool; and the runner
must refuse to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracle  # noqa: E402
from perfbench.workloads import WORKLOADS, schedule  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _traced_fingerprint(workload: str, seed: int) -> bytes:
    completed = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    spec = WORKLOADS[workload]
    assert result["correct"]
    assert result["attempted"] == len(spec.pool()[::spec.traced_stride])
    return (ROOT / ".perfbench"
            / f"{workload}-seed{seed}-fingerprint.json").read_bytes()


@pytest.mark.parametrize("workload", ["table-lr", "dense-fo", "serve-triage"])
def test_traced_runs_of_one_seed_have_identical_fingerprints(workload):
    first = _traced_fingerprint(workload, 7)
    second = _traced_fingerprint(workload, 7)
    assert first == second


def test_oracle_matches_integer_multiplication():
    from repro.circuit.verilog import write_verilog
    from repro.generators.multipliers import generate_multiplier
    text = write_verilog(generate_multiplier("BP-WT-CL", 4))
    circuit = oracle.Circuit(text)
    assert oracle.is_correct_multiplier(circuit, 4)
    rng = random.Random(0)
    for description, mutated in oracle.mutants(text, 12, "test"):
        buggy = oracle.Circuit(mutated)
        failing = [
            (a, b) for a in range(16) for b in range(16)
            if oracle.is_counterexample(buggy, 4, {
                **{f"a{i}": a >> i & 1 for i in range(4)},
                **{f"b{i}": b >> i & 1 for i in range(4)}})]
        assert oracle.is_correct_multiplier(buggy, 4) == (not failing), \
            description
        if failing:
            a, b = rng.choice(failing)
            assert oracle.is_counterexample(buggy, 4, {
                **{f"a{i}": a >> i & 1 for i in range(4)},
                **{f"b{i}": b >> i & 1 for i in range(4)}})


def test_stream_is_a_seeded_order_of_a_fixed_pool():
    pool = WORKLOADS["dense-fo"].pool()
    first = [r.rid for r in schedule(pool, 3, "dense-fo/1")]
    again = [r.rid for r in schedule(pool, 3, "dense-fo/1")]
    other = [r.rid for r in schedule(pool, 3, "dense-fo/2")]
    assert first == again and first != other
    assert Counter(first) == Counter(other) == Counter(
        {request.rid: 3 for request in pool})


def test_refuses_to_run_without_the_program():
    tmp_path = ROOT / ".perfbench" / "bare"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-lr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
    shutil.rmtree(tmp_path)
