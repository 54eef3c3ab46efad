"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import random

import pytest

from repro.circuit.netlist import GateType, Netlist


@pytest.fixture
def paper_full_adder() -> Netlist:
    """The full adder of the paper's Fig. 1 (five gates, XOR/AND/OR structure)."""
    netlist = Netlist("paper_full_adder")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    cin = netlist.add_input("cin")
    x1 = netlist.xor(a, b, "x1")
    x2 = netlist.and_(a, b, "x2")        # generate
    s = netlist.xor(x1, cin, "s")
    x4 = netlist.and_(x1, cin, "x4")
    c = netlist.or_(x2, x4, "c")
    netlist.add_output(s)
    netlist.add_output(c)
    netlist.validate()
    return netlist


@pytest.fixture
def tiny_and_netlist() -> Netlist:
    """A single AND gate, useful for unit tests of modelling and CNF."""
    netlist = Netlist("tiny_and")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.and_(a, b, "z")
    netlist.add_output("z")
    return netlist


def _random_dag(seed: int) -> Netlist:
    """A seeded random gate DAG with several outputs and some dead gates.

    Operands of one gate are distinct, as in every generated circuit.
    """
    rng = random.Random(seed)
    netlist = Netlist(f"dag{seed}")
    signals = [netlist.add_input(f"i{n}") for n in range(rng.randint(3, 6))]
    binary = (GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
              GateType.NOR, GateType.XNOR)
    for n in range(rng.randint(8, 40)):
        if rng.random() < 0.2:
            kind, fanin = rng.choice((GateType.NOT, GateType.BUF)), 1
        else:
            kind, fanin = rng.choice(binary), 2
        inputs = rng.sample(signals, fanin)
        signals.append(netlist.add_gate(kind, inputs, f"g{n}"))
    gate_signals = [s for s in signals if not netlist.is_input(s)]
    for signal in rng.sample(gate_signals, max(1, len(gate_signals) // 3)):
        netlist.add_output(signal)
    netlist.validate()
    return netlist


@pytest.fixture
def random_dag():
    """Builder of seeded random multi-output gate DAGs: ``random_dag(seed)``."""
    return _random_dag
