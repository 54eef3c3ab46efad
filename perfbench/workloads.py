"""The benchmark's three workloads: request pools, warm-ups and known answers.

Each workload is a fixed pool of requests.  A run sends the pool
``passes`` times, each pass in a fresh order drawn from the run's seed,
one request at a time.  The pool itself does not depend on the seed, so
the verdict mix — and with it ``decided_share`` and ``error_free_share`` —
is an exact constant of the workload, and every percentile is taken over
the same multiset of request classes in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from perfbench import oracle

TABLE1 = ("SP-AR-RC", "SP-WT-CL", "SP-RT-KS", "SP-CT-BK", "SP-DT-HC")
TABLE2 = ("BP-AR-RC", "BP-WT-CL", "BP-RT-KS", "BP-CT-BK", "BP-DT-HC")


@dataclass
class Request:
    """One request of a pool, with the answer the benchmark knows for it."""

    #: Stable identity inside the pool (also the trace's request id stem).
    rid: str
    #: Wire document: ``VerificationRequest`` fields, budgets as a dict.
    document: dict
    #: Operand width of the multiplier.
    width: int
    #: Known answer: is the circuit a correct multiplier?
    correct: bool = True
    #: Parsed circuit for counterexample replay (Verilog requests only).
    circuit: oracle.Circuit | None = field(default=None, repr=False)


@dataclass
class Workload:
    name: str
    #: ``"inprocess"`` (``VerificationService.submit``) or ``"http"``.
    transport: str
    #: Decided requests slower than this (drift-corrected seconds) miss
    #: the workload's latency limit.
    latency_limit_s: float
    #: Seconds one pass takes, speed probes included (raw, shared 2-vCPU
    #: x86-64 VM); sets the passes per run, which must stay fixed for a
    #: given ``--seconds``.
    nominal_pass_s: float
    #: Builds the pool with its known answers (outside the set-up clock).
    pool: Callable[[], list[Request]]
    #: Builds the warm-ups: one small request per request class, sent
    #: inside the set-up clock.
    warmups: Callable[[], list[Request]]
    #: The traced run sends every ``traced_stride``-th request of the pool
    #: once, so it measures the same requests for every seed.
    traced_stride: int = 1

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))


def _row(architecture: str, width: int, method: str, budgets: dict) -> Request:
    return Request(rid=f"{architecture}-{width}/{method}", width=width,
                   document={"architecture": architecture, "width": width,
                             "method": method, "budgets": dict(budgets)})


def table_lr_pool():
    """Table I and II at 32 bits under MT-LR, all verified.

    SP-AR-RC, the paper's reference architecture, is sent twice per pass:
    with 11 requests a pass the median falls in the middle of one row's
    latency band rather than on the edge between two rows.
    """
    pool = [_row(arch, 32, "mt-lr", {}) for arch in TABLE1 + TABLE2]
    pool.append(_row("SP-AR-RC", 32, "mt-lr", {}))
    pool[-1].rid += "#2"
    return pool


def table_lr_warmups():
    return [_row("BP-WT-CL", 8, "mt-lr", {})]


#: Dense rows: (architecture, width, method); budget 300k monomials.  The
#: last two trip the budget.  With 13 rows a pass, p50 and p75 fall inside
#: a cluster of rows of similar latency rather than between two clusters.
DENSE_ROWS = (
    ("SP-AR-RC", 7, "mt-fo"), ("SP-CT-BK", 8, "mt-fo"),
    ("BP-CT-BK", 7, "mt-fo"), ("BP-AR-RC", 8, "mt-fo"),
    ("BP-WT-CL", 7, "mt-naive"), ("SP-RT-KS", 8, "mt-fo"),
    ("SP-DT-HC", 6, "mt-fo"), ("SP-DT-HC", 6, "mt-naive"),
    ("BP-DT-HC", 8, "mt-fo"), ("SP-WT-CL", 6, "mt-fo"),
    ("SP-WT-CL", 7, "mt-fo"), ("SP-WT-CL", 8, "mt-naive"),
    ("BP-WT-CL", 10, "mt-fo"),
)
DENSE_BUDGETS = {"monomial_budget": 300_000}


def dense_fo_pool():
    """MT-FO / MT-naive rows at 6-10 bits under a 300k monomial budget."""
    return [_row(arch, width, method, DENSE_BUDGETS)
            for arch, width, method in DENSE_ROWS]


def dense_fo_warmups():
    return [_row("SP-AR-RC", 5, "mt-fo", DENSE_BUDGETS),
            _row("SP-AR-RC", 5, "mt-naive", DENSE_BUDGETS)]


SERVE_BUDGETS = {"monomial_budget": 100_000}
#: Mutants per architecture in the serve-triage pool.
MUTANTS_PER_ARCHITECTURE = 7
#: Certificate requests: the six rows whose certificate emission fails
#: (see README.md) and four that succeed, at 8 and 12 bits.
CERTIFICATE_ROWS = (
    ("SP-RT-KS", 8), ("SP-DT-HC", 8), ("BP-RT-KS", 8), ("BP-DT-HC", 8),
    ("SP-CT-BK", 12), ("BP-CT-BK", 12), ("SP-AR-RC", 8), ("BP-WT-CL", 8),
    ("SP-AR-RC", 12), ("BP-WT-CL", 12))


def _verilog(architecture: str, width: int) -> str:
    from repro.circuit.verilog import write_verilog
    from repro.generators.multipliers import generate_multiplier
    return write_verilog(generate_multiplier(architecture, width))


def _verilog_request(rid: str, text: str, width: int,
                     certificate: bool) -> Request:
    circuit = oracle.Circuit(text)
    document = {"verilog_text": text, "method": "mt-lr",
                "budgets": dict(SERVE_BUDGETS)}
    if certificate:
        document["certificate"] = True
    return Request(rid=rid, document=document, width=width,
                   correct=oracle.is_correct_multiplier(circuit, width),
                   circuit=circuit)


def serve_triage_pool():
    """A triage stream: 8-bit multipliers, most with one faulty gate.

    Per architecture, ``MUTANTS_PER_ARCHITECTURE`` single-gate mutants
    (a fixed pool, chosen by the architecture name) and the unmutated
    circuit; the oracle decides which mutants are still correct
    multipliers.  Plus the ``CERTIFICATE_ROWS`` with ``certificate: true``.
    90 requests keep the tail at p75, inside the dense middle of the
    latency distribution rather than among the few slowest requests.
    """
    pool = []
    for arch in TABLE1 + TABLE2:
        text = _verilog(arch, 8)
        pool.append(_verilog_request(f"{arch}-8/plain", text, 8, False))
        for description, mutated in oracle.mutants(
                text, MUTANTS_PER_ARCHITECTURE, f"{arch}-8"):
            pool.append(_verilog_request(f"{arch}-8/mutant/{description}",
                                         mutated, 8, False))
    for arch, width in CERTIFICATE_ROWS:
        pool.append(_verilog_request(f"{arch}-{width}/certificate",
                                     _verilog(arch, width), width, True))
    return pool


def serve_triage_warmups():
    warm = _verilog("SP-AR-RC", 4)
    (_, mutated), = oracle.mutants(warm, 1, "warm-up")
    return [_verilog_request("warm-up/mutant", mutated, 4, False),
            _verilog_request("warm-up/certificate", warm, 4, True)]


WORKLOADS = {
    "table-lr": Workload("table-lr", "inprocess", latency_limit_s=2.0,
                         nominal_pass_s=6.0, pool=table_lr_pool,
                         warmups=table_lr_warmups),
    "dense-fo": Workload("dense-fo", "inprocess", latency_limit_s=3.0,
                         nominal_pass_s=10.0, pool=dense_fo_pool,
                         warmups=dense_fo_warmups),
    # Its traced run sends each request over HTTP and twice in-process,
    # so it traces half the pool: four of the eight requests of every
    # architecture and five of the ten certificate rows.
    "serve-triage": Workload("serve-triage", "http", latency_limit_s=4.0,
                             nominal_pass_s=31.0, pool=serve_triage_pool,
                             warmups=serve_triage_warmups, traced_stride=2),
}


def schedule(pool: list[Request], passes: int, seed: str) -> list[Request]:
    """The run's request stream: ``passes`` seeded permutations of the pool."""
    rng = random.Random(seed)
    stream = []
    for _ in range(passes):
        order = list(pool)
        rng.shuffle(order)
        stream.extend(order)
    return stream
