"""Tests for miter construction and SAT-based equivalence checking."""

import itertools

import pytest

from repro.baselines.sat.miter import build_miter, sat_equivalence_check
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.circuit.netlist import Netlist
from repro.circuit.simulate import simulate
from repro.errors import SatError
from repro.generators.adders import generate_adder
from repro.generators.multipliers import generate_multiplier


def test_equivalent_multiplier_architectures():
    left = generate_multiplier("SP-WT-CL", 3)
    right = generate_multiplier("SP-AR-RC", 3)
    result = sat_equivalence_check(left, right)
    assert result.equivalent
    assert result.num_clauses > 0 and result.num_variables > 0


def test_different_circuits_produce_counterexample():
    golden = generate_multiplier("SP-AR-RC", 3)
    buggy = apply_mutation(golden, [m for m in list_mutations(golden)
                                    if m.signal.startswith("pp")][0])
    result = sat_equivalence_check(buggy, golden)
    assert result.status == "different"
    assert result.counterexample is not None
    assert set(result.counterexample) == set(golden.inputs)


def test_adder_equivalence_across_architectures():
    result = sat_equivalence_check(generate_adder("KS", 6), generate_adder("RC", 6))
    assert result.equivalent


def test_conflict_budget_reports_unknown():
    left = generate_multiplier("SP-WT-CL", 5)
    right = generate_multiplier("SP-CT-BK", 5)
    result = sat_equivalence_check(left, right, conflict_limit=5)
    assert result.timed_out
    assert not result.equivalent


def test_miter_requires_matching_interfaces():
    left = Netlist("l")
    left.add_input("a")
    left.buf("a", "y")
    left.add_output("y")
    right = Netlist("r")
    right.add_input("b")
    right.buf("b", "y")
    right.add_output("y")
    with pytest.raises(SatError):
        build_miter(left, right)


@pytest.mark.parametrize("seed", range(8))
def test_miter_matches_exhaustive_simulation_on_random_dag_mutants(
        random_dag, seed):
    """The campaign's SAT cross-check reference agrees with simulation."""
    golden = random_dag(seed)
    patterns = [dict(zip(golden.inputs, bits)) for bits in
                itertools.product((0, 1), repeat=len(golden.inputs))]

    def outputs(netlist, pattern):
        values = simulate(netlist, pattern)
        return [values[name] for name in netlist.outputs]

    expected = [outputs(golden, pattern) for pattern in patterns]
    for mutation in list_mutations(golden):
        mutant = apply_mutation(golden, mutation)
        same = all(outputs(mutant, pattern) == reference
                   for pattern, reference in zip(patterns, expected))
        result = sat_equivalence_check(mutant, golden)
        assert result.status == ("equivalent" if same else "different"), \
            mutation.describe()
        if not same:
            witness = result.counterexample
            assert outputs(mutant, witness) != outputs(golden, witness)
