"""Tests for topological/level/fanout analyses."""

import pytest

from repro.circuit.analysis import (
    circuit_depth,
    fanout_counts,
    input_support,
    multi_fanout_signals,
    signal_levels,
    topological_signals,
    transitive_fanin,
)
from repro.circuit.gates import Gate, GateType
from repro.circuit.netlist import Netlist
from repro.errors import CircuitError


def test_topological_order_respects_dependencies(paper_full_adder):
    order = topological_signals(paper_full_adder)
    position = {signal: i for i, signal in enumerate(order)}
    for gate in paper_full_adder.gates():
        for source in gate.inputs:
            assert position[source] < position[gate.output]


def test_levels_of_full_adder(paper_full_adder):
    levels = signal_levels(paper_full_adder)
    assert levels["a"] == 0 and levels["cin"] == 0
    assert levels["x1"] == 1 and levels["x2"] == 1
    assert levels["s"] == 2 and levels["x4"] == 2
    assert levels["c"] == 3
    assert circuit_depth(paper_full_adder) == 3


def test_fanout_counts_and_multi_fanout(paper_full_adder):
    counts = fanout_counts(paper_full_adder)
    # x1 feeds the sum XOR and the AND gate.
    assert counts["x1"] == 2
    assert counts["x2"] == 1
    # outputs count as one extra reader
    assert counts["s"] == 1
    assert "x1" in multi_fanout_signals(paper_full_adder)
    assert "x2" not in multi_fanout_signals(paper_full_adder)


def test_transitive_fanin_and_input_support(paper_full_adder):
    cone = transitive_fanin(paper_full_adder, ["c"])
    assert {"a", "b", "cin", "x1", "x2", "x4", "c"} <= cone
    assert "s" not in cone
    assert input_support(paper_full_adder, "s") == {"a", "b", "cin"}


def test_cycle_detection_in_topological_sort():
    netlist = Netlist()
    netlist.add_input("a")
    netlist._gates["x"] = Gate(output="x", gate_type=GateType.AND, inputs=("a", "y"))
    netlist._gates["y"] = Gate(output="y", gate_type=GateType.NOT, inputs=("x",))
    with pytest.raises(CircuitError):
        topological_signals(netlist)


@pytest.mark.parametrize("seed", range(8))
def test_analyses_are_consistent_on_random_dags(random_dag, seed):
    netlist = random_dag(seed)
    order = topological_signals(netlist)
    assert sorted(order) == sorted(netlist.signals())
    position = {signal: i for i, signal in enumerate(order)}
    levels = signal_levels(netlist)
    reads = {signal: 0 for signal in netlist.signals()}
    for gate in netlist.gates():
        for source in gate.inputs:
            assert position[source] < position[gate.output]
            reads[source] += 1
        assert levels[gate.output] == \
            1 + max(levels[source] for source in gate.inputs)
    assert all(levels[name] == 0 for name in netlist.inputs)
    assert circuit_depth(netlist) == max(levels.values())

    for output in netlist.outputs:
        reads[output] += 1
    assert fanout_counts(netlist) == reads
    assert multi_fanout_signals(netlist) == \
        {signal for signal, count in reads.items() if count > 1}

    cone = transitive_fanin(netlist, netlist.outputs)
    for signal in cone:
        if not netlist.is_input(signal):
            assert set(netlist.gate_of(signal).inputs) <= cone
    for output in netlist.outputs:
        assert input_support(netlist, output) == {
            signal for signal in transitive_fanin(netlist, [output])
            if netlist.is_input(signal)}
