"""End-to-end tests of the verification engines (MT-LR, MT-FO, MT-Naive)."""

import pytest

from repro.api.request import Budgets
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.circuit.simulate import exhaustive_check, simulate_words
from repro.errors import BlowUpError, VerificationError
from repro.generators.adders import generate_adder
from repro.generators.catalog import architecture_names
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import METHODS, verify, verify_adder, verify_multiplier


@pytest.mark.parametrize("architecture", architecture_names())
def test_mt_lr_verifies_every_architecture_at_width_4(architecture):
    netlist = generate_multiplier(architecture, 4)
    result = verify_multiplier(netlist, method="mt-lr")
    assert result.verified, result.remainder_text
    assert result.cancelled_vanishing_monomials >= 0
    assert result.model_statistics.num_polynomials > 0
    assert result.total_time_s >= result.reduction_time_s


@pytest.mark.parametrize("kind", ["RC", "CL", "KS", "BK", "HC"])
def test_mt_lr_verifies_adders(kind):
    result = verify_adder(generate_adder(kind, 10), method="mt-lr")
    assert result.verified


@pytest.mark.parametrize("method", METHODS)
def test_all_methods_agree_on_small_ripple_multiplier(method):
    netlist = generate_multiplier("SP-AR-RC", 3)
    result = verify_multiplier(netlist, method=method)
    assert result.verified
    assert result.method == method


def test_unknown_method_and_spec_are_rejected():
    netlist = generate_multiplier("SP-AR-RC", 3)
    with pytest.raises(VerificationError):
        verify_multiplier(netlist, method="magic")
    with pytest.raises(VerificationError):
        verify(netlist, specification="divider")


def test_buggy_multiplier_is_rejected_with_counterexample():
    netlist = generate_multiplier("SP-WT-CL", 3)
    mutations = [m for m in list_mutations(netlist) if m.signal.startswith("pp")]
    buggy = apply_mutation(netlist, mutations[0])
    result = verify_multiplier(buggy, method="mt-lr")
    assert not result.verified
    assert result.remainder_text
    assert result.counterexample is not None
    # The counterexample must actually expose the mismatch in simulation.
    a_val = sum(result.counterexample[f"a{i}"] << i for i in range(3))
    b_val = sum(result.counterexample[f"b{i}"] << i for i in range(3))
    product = simulate_words(buggy, {"a": a_val, "b": b_val})
    assert product != (a_val * b_val) % 64


@pytest.mark.parametrize("width", [2, 3, 4])
def test_every_observable_single_gate_fault_is_detected(width):
    """Completeness: MT-LR flags exactly the real bugs.

    At 4 bits this is the 260-mutant sweep of SP-AR-RC, each verdict
    checked against exhaustive simulation.
    """
    netlist = generate_multiplier("SP-AR-RC", width)
    mutations = list_mutations(netlist)
    if width == 4:
        assert len(mutations) == 260, "catalog slice changed size"
    for mutation in mutations:
        buggy = apply_mutation(netlist, mutation)
        functionally_correct, _ = exhaustive_check(
            buggy, lambda a, b: a * b, ["a", "b"], [width, width])
        result = verify_multiplier(buggy, method="mt-lr",
                                   find_counterexample=False)
        assert result.verified == functionally_correct, mutation.describe()


@pytest.mark.parametrize("kind", ["RC", "CL", "KS", "BK", "HC"])
def test_every_observable_single_gate_adder_fault_is_detected(kind):
    """Completeness on adders: each 4-bit mutant's verdict matches simulation."""
    netlist = generate_adder(kind, 4)
    for mutation in list_mutations(netlist):
        buggy = apply_mutation(netlist, mutation)
        functionally_correct, _ = exhaustive_check(
            buggy, lambda a, b: a + b, ["a", "b"], [4, 4])
        result = verify_adder(buggy, method="mt-lr",
                              find_counterexample=False)
        assert result.verified == functionally_correct, mutation.describe()


def test_buggy_adder_detected():
    netlist = generate_adder("KS", 6)
    mutation = [m for m in list_mutations(netlist) if "_p" in m.signal][0]
    buggy = apply_mutation(netlist, mutation)
    ok, _ = exhaustive_check(buggy, lambda a, b: a + b, ["a", "b"], [6, 6])
    result = verify_adder(buggy, method="mt-lr")
    assert result.verified == ok


def test_blowup_budget_is_reported_for_naive_method_on_parallel_multiplier():
    netlist = generate_multiplier("BP-RT-KS", 6)
    with pytest.raises(BlowUpError):
        verify_multiplier(netlist, method="mt-fo",
                          budgets=Budgets(monomial_budget=2000,
                                          time_budget_s=5.0))


def test_result_summary_format():
    result = verify_multiplier(generate_multiplier("SP-AR-RC", 3))
    text = result.summary()
    assert "VERIFIED" in text and "mt-lr" in text


def test_modulus_toggle_does_not_change_the_verdict_at_small_width():
    """The mod-2^(2n) specification is the paper's; dropping it must not flip results.

    (For the paper's generator the Booth encodings only match the unsigned
    specification modulo 2^(2n); our generator's full-width two's-complement
    rows make the match exact, so both settings verify — see EXPERIMENTS.md.)
    """
    booth = verify_multiplier(generate_multiplier("BP-WT-RC", 3),
                              use_modulus=False, find_counterexample=False)
    assert booth.verified
    with_modulus = verify_multiplier(generate_multiplier("BP-WT-RC", 3))
    assert with_modulus.verified
    assert "mod" in with_modulus.specification


def test_xor_and_only_mode_still_verifies_simple_prefix_designs():
    result = verify_adder(generate_adder("KS", 6), method="mt-lr",
                          xor_and_only=True)
    assert result.verified
