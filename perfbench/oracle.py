"""Known answers for the benchmark, computed without the verifier under test.

A tiny gate-level simulator over the structural-Verilog subset the
repository writes (``and``/``or``/``xor``/``nand``/``nor``/``xnor``/
``not``/``buf`` primitives and constant ``assign``s).  Signals are
simulated bit-parallel: every signal is a Python integer whose bit ``k``
is the signal's value under input vector ``k``, so one pass over the gate
list evaluates all 2^16 operand pairs of an 8-bit multiplier at once.

The reference product is computed the same bit-parallel way by a
shift-and-add multiplier written here, so a circuit's known answer never
depends on the repository's generators, simulator or verifier.
"""

from __future__ import annotations

import random
import re

_PRIMITIVES = {
    "and": lambda ins, mask: _fold(ins, lambda x, y: x & y),
    "or": lambda ins, mask: _fold(ins, lambda x, y: x | y),
    "xor": lambda ins, mask: _fold(ins, lambda x, y: x ^ y),
    "nand": lambda ins, mask: mask & ~_fold(ins, lambda x, y: x & y),
    "nor": lambda ins, mask: mask & ~_fold(ins, lambda x, y: x | y),
    "xnor": lambda ins, mask: mask & ~_fold(ins, lambda x, y: x ^ y),
    "not": lambda ins, mask: mask & ~ins[0],
    "buf": lambda ins, mask: ins[0],
}

#: Gate substitutions of the single-gate fault model (same arity, other function).
MUTATIONS = {
    "and": ("or", "xor", "nand"),
    "or": ("and", "xor", "nor"),
    "xor": ("and", "or", "xnor"),
    "nand": ("and", "nor"),
    "nor": ("or", "nand"),
    "xnor": ("xor",),
    "not": ("buf",),
    "buf": ("not",),
}

_GATE_RE = re.compile(r"^\s*(\w+)\s+\w+\s*\(([^)]*)\)\s*;\s*$")
_DECL_RE = re.compile(r"^\s*(input|output|wire)\s+(\w+)\s*;\s*$")
_CONST_RE = re.compile(r"^\s*assign\s+(\w+)\s*=\s*1'b([01])\s*;\s*$")


def _fold(values, op):
    result = values[0]
    for value in values[1:]:
        result = op(result, value)
    return result


class Circuit:
    """A parsed gate-level netlist in topological order."""

    def __init__(self, text: str) -> None:
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        gates: dict[str, tuple[str, list[str]]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith(("module", "endmodule")):
                continue
            if match := _DECL_RE.match(line):
                kind, name = match.groups()
                if kind == "input":
                    self.inputs.append(name)
                elif kind == "output":
                    self.outputs.append(name)
            elif match := _CONST_RE.match(line):
                gates[match.group(1)] = ("const" + match.group(2), [])
            elif (match := _GATE_RE.match(line)) and match.group(1) in _PRIMITIVES:
                ports = [port.strip() for port in match.group(2).split(",")]
                gates[ports[0]] = (match.group(1), ports[1:])
            else:
                raise ValueError(f"unsupported Verilog statement: {line!r}")
        self.gates = _topological(gates, set(self.inputs))

    def simulate(self, inputs: dict[str, int], mask: int) -> dict[str, int]:
        """Bit-parallel values of every output, given input bit planes."""
        values = dict(inputs)
        for output, kind, fanin in self.gates:
            if kind == "const0":
                values[output] = 0
            elif kind == "const1":
                values[output] = mask
            else:
                values[output] = _PRIMITIVES[kind](
                    [values[name] for name in fanin], mask)
        return {name: values[name] for name in self.outputs}


def _topological(gates, inputs):
    order, done = [], set(inputs)
    for root in gates:
        stack = [root]
        while stack:
            signal = stack[-1]
            if signal in done:
                stack.pop()
                continue
            pending = [name for name in gates[signal][1] if name not in done]
            if not pending:
                done.add(signal)
                order.append((signal, *gates[signal]))
                stack.pop()
            elif len(stack) > len(gates) + 1:
                raise ValueError("combinational loop")
            else:
                stack.extend(pending)
    return order


def _word_planes(prefix: str, width: int, planes: list[int]) -> dict[str, int]:
    return {f"{prefix}{i}": planes[i] for i in range(width)}


def reference_product(a: list[int], b: list[int], out_width: int,
                      mask: int) -> list[int]:
    """Bit planes of ``A * B mod 2^out_width`` by bit-parallel shift-and-add."""
    acc = [0] * out_width
    for j, b_plane in enumerate(b):
        carry = 0
        for i in range(j, out_width):
            addend = a[i - j] & b_plane if i - j < len(a) else 0
            total = acc[i] ^ addend ^ carry
            carry = (acc[i] & addend) | (carry & (acc[i] ^ addend))
            acc[i] = total
    return [plane & mask for plane in acc]


def operand_planes(width: int, sample_seed: int = 0):
    """Input planes for a ``width x width`` multiplier.

    Exhaustive (all ``2^(2*width)`` operand pairs) up to 8 bits; above
    that, 65536 seeded random pairs.
    """
    if 2 * width <= 16:
        vectors = 1 << (2 * width)
        mask = (1 << vectors) - 1
        planes = []
        for bit in range(2 * width):
            period = 1 << (bit + 1)
            block = ((1 << (period // 2)) - 1) << (period // 2)
            planes.append(mask // ((1 << period) - 1) * block)
    else:
        vectors = 1 << 16
        mask = (1 << vectors) - 1
        rng = random.Random(f"operand-planes/{width}/{sample_seed}")
        planes = [rng.getrandbits(vectors) for _ in range(2 * width)]
    return planes[:width], planes[width:], mask


def is_correct_multiplier(circuit: Circuit, width: int) -> bool:
    """Known answer: does the circuit compute ``A * B mod 2^(2*width)``?"""
    a, b, mask = operand_planes(width)
    inputs = {**_word_planes("a", width, a), **_word_planes("b", width, b)}
    values = circuit.simulate(inputs, mask)
    expected = reference_product(a, b, 2 * width, mask)
    return all(values[f"s{i}"] == expected[i] for i in range(2 * width))


def is_counterexample(circuit: Circuit, width: int,
                      assignment: dict[str, int]) -> bool:
    """Gate-level replay: does the assignment expose ``S != A * B``?"""
    values = circuit.simulate({name: assignment.get(name, 0) & 1
                               for name in circuit.inputs}, 1)
    a = sum(assignment.get(f"a{i}", 0) << i for i in range(width))
    b = sum(assignment.get(f"b{i}", 0) << i for i in range(width))
    s = sum(values[f"s{i}"] << i for i in range(2 * width))
    return s != (a * b) % (1 << (2 * width))


def mutants(text: str, count: int, seed: str) -> list[tuple[str, str]]:
    """``count`` distinct single-gate substitutions of a Verilog netlist.

    Returns ``(description, mutated_text)`` pairs, chosen by ``seed``.
    """
    lines = text.splitlines(keepends=True)
    sites = [(index, match.group(1), target)
             for index, line in enumerate(lines)
             if (match := _GATE_RE.match(line)) and match.group(1) in MUTATIONS
             for target in MUTATIONS[match.group(1)]]
    chosen = random.Random(seed).sample(sites, count)
    result = []
    for index, original, target in chosen:
        mutated = list(lines)
        mutated[index] = re.sub(r"\w+", target, lines[index], count=1)
        output = _GATE_RE.match(lines[index]).group(2).split(",")[0].strip()
        result.append((f"{output}:{original}->{target}", "".join(mutated)))
    return result
