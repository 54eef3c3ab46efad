"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table-lr --seed 1 --seconds 35 --trace 0

Every request is sent from this one process, one at a time (closed loop,
concurrency 1), and every verdict is checked against the answer the
benchmark knows (see ``perfbench/oracle.py``); a wrong verdict aborts the
run with exit code 1.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; details (every sample, spans, the counter fingerprint) go
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Cold set-ups measured per untraced run, spread evenly over its request
#: stream so that they sample the machine's speed over the whole run;
#: ``setup_s`` is the median of their drift-corrected times.
SETUP_PROBES = 7
#: Tail percentiles tried, highest first; the first with at least
#: ``TAIL_MIN_BEYOND`` samples above it is reported as ``latency_tail_s``.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.90, 0.75)
TAIL_MIN_BEYOND = 10
#: Largest allowed :func:`cliff` ratio around a reported percentile.
CLIFF_LIMIT = 1.5
#: Typical :func:`speed_probe` time (x86-64, 2 vCPUs, CPython 3.11).  The
#: timing metrics are reported in seconds at this probe speed (see
#: :func:`drift_factor`); the raw seconds are printed beside them.
REFERENCE_PROBE_S = 0.008
#: Request times move less than the probe when the machine's speed
#: changes: the slope of log latency on log probe time was 0.6-0.9 per
#: request and per run.  Over three ten-run sets of each workload,
#: exponents 0.5-1.0 with windows of 0, 2 and 5 requests were compared;
#: 0.8 with a window of 2 gave the lowest spreads, and did so again on a
#: fourth set held out of the choice (see README.md, "Drift correction").
DRIFT_EXPONENT = 0.8
#: A request's drift factor averages the probes of the requests up to this
#: many places before and after it in the stream: one 8 ms probe pair is
#: noisy, and the machine's speed changes over seconds, not milliseconds.
DRIFT_WINDOW = 2
READY = "perfbench: ready"

END_TO_END = (
    ("setup_s", "s"), ("verdicts_per_s", "1/s"), ("latency_p50_s", "s"),
    ("latency_tail_s", "s"), ("decided_share", "share"),
    ("within_limit_share", "share"), ("error_free_share", "share"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("generators.generate_s", "s"), ("circuit.validate_s", "s"),
    ("modeling.model_build_s", "s"), ("circuit.gates", "count"),
    ("circuit.parse_verilog_s", "s"),
    ("rewriting.s", "s"), ("rewriting.substitution_steps", "count"),
    ("rewriting.affected_terms", "count"),
    ("rewriting.rejected_substitutions", "count"),
    ("rewriting.peak_tail_terms", "count"), ("rewriting.cvm", "count"),
    ("vanishing.probes", "count"), ("vanishing.cache_hit_ratio", "ratio"),
    ("vanishing.witness_hits", "count"),
    ("reduction.s", "s"), ("reduction.substitutions", "count"),
    ("reduction.peak_monomials", "count"),
    ("reduction.affected_terms", "count"),
    ("reduction.modulus_removed_terms", "count"),
    ("counterexample.s", "s"), ("sat.cross_check_s", "s"),
    ("sat.conflicts", "count"),
    ("certify.build_s", "s"), ("certify.check_s", "s"),
    ("certify.bytes", "bytes"), ("certify.failures", "count"),
    ("service.overhead_s", "s"), ("server.transport_s", "s"),
    ("server.response_bytes", "bytes"),
    ("trace.overhead_share", "share"), ("trace.coverage_share", "share"),
)


class WrongVerdict(Exception):
    """A verdict that contradicts the benchmark's known answer."""


def _die_with_parent() -> None:
    """Child-process hook: the kernel sends SIGTERM when this process dies."""
    import ctypes
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)   # PR_SET_PDEATHSIG
    except (AttributeError, OSError):
        pass


def _load_program():
    """Put the checkout's sources on the path; fail if they are missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/repro in this checkout; "
                         "nothing to benchmark")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- the system under test ----------------------------------------------------

@dataclass
class Answer:
    report: object = None
    error: str | None = None
    response_bytes: int = 0
    #: Seconds spent in ``submit`` / the HTTP exchange alone.
    submit_s: float = 0.0


def _to_request(document: dict):
    from repro.api import Budgets, VerificationRequest
    fields = {key: value for key, value in document.items() if key != "budgets"}
    return VerificationRequest(budgets=Budgets(**document.get("budgets", {})),
                               **fields)


def _check_certificate(request, answer: Answer, tracer) -> None:
    """Client-side certificate check, part of the request's latency."""
    from repro.certify import check_certificate
    from repro.errors import CertificateError
    if not request.document.get("certificate") or answer.error:
        return
    report = answer.report
    if report.verdict != "verified":
        return
    if report.certificate is None:
        answer.error = "certificate missing"
        return
    with tracer.span("certify.check") if tracer else contextlib.nullcontext():
        try:
            check_certificate(report.certificate)
        except CertificateError as error:
            answer.error = f"certificate check failed: {error}"


class InProcess:
    """``VerificationService.submit`` in this process."""

    def __init__(self) -> None:
        from repro.api import VerificationService
        self.service = VerificationService()

    def send(self, request, tracer=None) -> Answer:
        from repro.errors import ReproError
        answer = Answer()
        start = time.perf_counter()
        try:
            with (tracer.span("service.submit") if tracer
                  else contextlib.nullcontext()):
                answer.report = self.service.submit(
                    _to_request(request.document))
        except ReproError as error:
            answer.error = f"{type(error).__name__}: {error}"
        answer.submit_s = time.perf_counter() - start
        _check_certificate(request, answer, tracer)
        return answer

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class Server:
    """A ``repro-verify serve --jobs 1`` subprocess and one keep-alive client."""

    def __init__(self) -> None:
        from repro.resilience.policy import RetryPolicy
        from repro.server.client import VerificationClient
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"server-{os.getpid()}.log"
        self.log = open(self.log_path, "w+", encoding="utf-8")
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "1"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=self.log, preexec_fn=_die_with_parent)
        try:
            port = self._wait_for_port()
            self.client = VerificationClient(
                port=port, timeout_s=120.0,
                retry_policy=RetryPolicy(max_attempts=1))
            if self.client.healthz().get("status") != "ok":
                raise RuntimeError("server /healthz is not ok")
        except BaseException:
            self.close()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[\d.]+:(\d+)",
                              self.log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("server did not start: "
                           + self.log_path.read_text(encoding="utf-8")[-2000:])

    def send(self, request, tracer=None) -> Answer:
        from repro.api.report import VerificationReport
        from repro.server.client import ServerError
        answer = Answer()
        start = time.perf_counter()
        try:
            body = self.client.verify_raw(request.document)
            answer.response_bytes = len(body)
            answer.report = VerificationReport.from_json(body.decode("utf-8"))
        except ServerError as error:
            answer.error = str(error)
        answer.submit_s = time.perf_counter() - start
        _check_certificate(request, answer, tracer)
        return answer

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def close(self) -> None:
        """Drain and reap the server (SIGTERM, then SIGKILL after 15 s)."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        self.log_path.unlink(missing_ok=True)


# -- known answers --------------------------------------------------------------

def judge(request, answer: Answer) -> str:
    """The request's outcome; raises :class:`WrongVerdict` on a wrong answer."""
    from perfbench import oracle
    if answer.error:
        return "error"
    report = answer.report
    verdict = report.verdict
    if verdict == "verified" and not request.correct:
        raise WrongVerdict(f"{request.rid}: verified, but the circuit is "
                           "not a multiplier")
    if verdict == "refuted":
        if request.correct:
            raise WrongVerdict(f"{request.rid}: refuted a correct multiplier")
        if (report.counterexample is not None
                and not oracle.is_counterexample(request.circuit, request.width,
                                                 report.counterexample)):
            raise WrongVerdict(f"{request.rid}: counterexample "
                               f"{report.counterexample} does not fail in "
                               "gate-level simulation")
        cross = report.cross_check or {}
        if (cross.get("agrees") is False
                or cross.get("counterexample_confirmed") is False):
            raise WrongVerdict(f"{request.rid}: cross-check disagrees: {cross}")
    if verdict in ("verified", "refuted", "budget"):
        return verdict
    answer.error = f"verdict {verdict!r}: {report.reason}"
    return "error"


# -- statistics -----------------------------------------------------------------

def quantile(sorted_values: list[float], q: float) -> float:
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return (sorted_values[low]
            + (sorted_values[high] - sorted_values[low]) * (position - low))


def drift_factor(probes) -> float:
    """How much slower than usual the machine ran during these probes.

    ``(mean probe time / REFERENCE_PROBE_S) ** DRIFT_EXPONENT``; a timing
    divided by it is in seconds at the reference speed.
    """
    return (statistics.fmean(probes) / REFERENCE_PROBE_S) ** DRIFT_EXPONENT


def speed_probe() -> float:
    """Seconds for a fixed pure-Python job of dict and integer operations.

    Run before and after every timed request; each timing, set-up probes
    included, is divided by the :func:`drift_factor` of the probes of the
    requests around it.
    """
    start = time.perf_counter()
    terms: dict[int, int] = {}
    mask = 1
    for i in range(12_000):
        key = (i * 2654435761) & 0xFFFFFFFFFF
        mask = (mask * 3 ^ key) & ((1 << 256) - 1)
        terms[key & 0xFFFF] = terms.get(key & 0xFFFF, 0) + (mask >> 200)
    return time.perf_counter() - start


def tail_quantile(count: int) -> float:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples above it."""
    for q in TAIL_LADDER:
        if count - 1 - math.floor(q * (count - 1)) >= TAIL_MIN_BEYOND:
            return q
    return 0.5


def cliff(sorted_values: list[float], q: float) -> float:
    """How far the ``q`` quantile could jump if the mix shifted a little.

    The ratio between the samples ``k`` ranks above and below the
    quantile's position, ``k = max(2, 2 % of the samples)``.  A ratio above
    :data:`CLIFF_LIMIT` means the quantile sits in the empty range
    between two request classes (say 16-bit and 32-bit rows) rather than
    inside one.
    """
    count = len(sorted_values)
    k = max(2, math.ceil(0.02 * count))
    position = q * (count - 1)
    low = sorted_values[max(0, math.floor(position) - k)]
    high = sorted_values[min(count - 1, math.ceil(position) + k)]
    return high / low


def end_to_end(samples: list[dict], setups: list[dict], workload,
               peak_rss_mb: float) -> tuple[dict, dict]:
    count = len(samples)
    errors = sum(sample["outcome"] == "error" for sample in samples)
    probes = [sample["probe_s"] for sample in samples]
    for index, sample in enumerate(samples):
        window = probes[max(0, index - DRIFT_WINDOW):index + DRIFT_WINDOW + 1]
        sample["corrected_s"] = sample["latency_s"] / drift_factor(window)
    for setup in setups:
        # The requests just before and after the set-up probe.
        index = setup["index"]
        window = probes[max(0, index - DRIFT_WINDOW):index + DRIFT_WINDOW]
        setup["corrected_s"] = setup["setup_s"] / drift_factor(window)
    decided = [s for s in samples if s["outcome"] in ("verified", "refuted")]
    within = sum(s["corrected_s"] <= workload.latency_limit_s for s in decided)
    tail_q = tail_quantile(count)

    def timings(key):
        latencies = sorted(sample[key] for sample in samples)
        return {"verdicts_per_s": (count - errors) / sum(latencies),
                "latency_p50_s": quantile(latencies, 0.5),
                "latency_tail_s": quantile(latencies, tail_q)}

    corrected = sorted(sample["corrected_s"] for sample in samples)
    values = {
        "setup_s": statistics.median(s["corrected_s"] for s in setups),
        **timings("corrected_s"),
        "decided_share": len(decided) / count,
        "within_limit_share": within / count,
        "error_free_share": (count - errors) / count,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "samples": count, "errors": errors, "tail_percentile": tail_q * 100,
        "samples_beyond_tail": count - 1 - math.floor(tail_q * (count - 1)),
        "p50_cliff": cliff(corrected, 0.5),
        "tail_cliff": cliff(corrected, tail_q),
        "latency_limit_s": workload.latency_limit_s,
        "drift_factor": drift_factor(s["probe_s"] for s in samples),
        "raw": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                **timings("latency_s")},
    }
    return values, details


# -- set-up -------------------------------------------------------------------

def set_up(workload):
    """The system under test, after one warm-up request per class."""
    warmups = workload.warmups()
    target = Server() if workload.transport == "http" else InProcess()
    try:
        for request in warmups:
            judge(request, target.send(request))
    except BaseException:
        target.close()
        raise
    return target


def probe_setup(args) -> float:
    """Seconds from spawning a fresh benchmark process until it is ready:
    imports, service or server boot, and the warm-ups (:func:`set_up`)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL, text=True,
                             preexec_fn=_die_with_parent)
    try:
        for line in child.stdout:
            if line.strip() == READY:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError("set-up probe exited before it was ready")
        child.stdout.read()
        if child.wait(timeout=60) != 0:
            raise RuntimeError("set-up probe failed")
        return elapsed
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()


# -- runs -----------------------------------------------------------------------

def timed_run(stream, target, probe) -> tuple[list[dict], list[dict]]:
    """The timed requests, and ``SETUP_PROBES`` calls of ``probe`` (a cold
    set-up) spread evenly between them."""
    samples, setups = [], []
    due = {round(i * len(stream) / SETUP_PROBES) for i in range(SETUP_PROBES)}
    for index, request in enumerate(stream):
        if index in due:
            setups.append({"index": index, "setup_s": probe()})
        before = speed_probe()
        start = time.perf_counter()
        answer = target.send(request)
        latency = time.perf_counter() - start
        after = speed_probe()
        outcome = judge(request, answer)
        samples.append({"index": index, "rid": request.rid,
                        "outcome": outcome, "latency_s": latency,
                        "error": answer.error, "probe_s": (before + after) / 2})
    return samples, setups


def _fingerprint(rid: str, certificate_requested: bool, answer: Answer,
                 outcome: str, captured: dict) -> dict:
    from repro.certify import canonical_json
    stats = captured.get("rewrite_statistics", [])
    trace = captured.get("reduction_trace")
    report = answer.report
    cross = (report.cross_check if report is not None else None) or {}
    certificate = report.certificate if report is not None else None
    return {
        "request": rid, "outcome": outcome,
        "circuit.gates": captured.get("gates", 0),
        "rewriting.substitution_steps": sum(s.substitution_steps for s in stats),
        "rewriting.affected_terms": sum(s.affected_terms for s in stats),
        "rewriting.rejected_substitutions":
            sum(s.rejected_substitutions for s in stats),
        "rewriting.peak_tail_terms": max((s.peak_tail_terms for s in stats),
                                         default=0),
        "rewriting.cvm": sum(s.cancelled_vanishing_monomials for s in stats),
        "vanishing.cache_hits": sum(s.vanishing_cache_hits for s in stats),
        "vanishing.probes": sum(s.vanishing_cache_hits + s.vanishing_cache_misses
                                for s in stats),
        "vanishing.witness_hits": sum(s.vanishing_witness_hits for s in stats),
        "reduction.substitutions": trace.substitutions if trace else 0,
        "reduction.peak_monomials": trace.peak_monomials if trace else 0,
        "reduction.affected_terms": trace.affected_terms if trace else 0,
        "reduction.modulus_removed_terms":
            trace.modulus_removed_terms if trace else 0,
        "sat.conflicts": cross.get("conflicts", 0),
        "certify.bytes": (len(canonical_json(certificate))
                          if certificate is not None else 0),
        "certify.failed": bool(certificate_requested and answer.error),
    }


def traced_run(stream, target):
    """Per request: the untraced send, then the same request traced in-process.

    For the HTTP workload the request is sent over HTTP first, then
    in-process untraced and traced, so ``server.transport_s`` compares
    the HTTP exchange with the in-process ``submit`` of the same request.
    """
    from perfbench.tracing import Tracer, instrument
    http = isinstance(target, Server)
    local = InProcess() if http else target
    tracer = Tracer()
    rows, fingerprints = [], []
    for index, request in enumerate(stream):
        row = {"transport_s": 0.0, "response_bytes": 0}
        if http:
            remote = target.send(request)
            judge(request, remote)
            row["response_bytes"] = remote.response_bytes
        start = time.perf_counter()
        plain = local.send(request)
        row["plain_s"] = time.perf_counter() - start
        judge(request, plain)
        if http:
            row["transport_s"] = remote.submit_s - plain.submit_s
        rid = f"{index:04d}:{request.rid}"
        tracer.request = rid
        with instrument(tracer):
            with tracer.span("request") as span:
                answer = local.send(request, tracer)
        outcome = judge(request, answer)
        row["traced_s"] = span["end"] - span["start"]
        rows.append(row)
        fingerprints.append(_fingerprint(
            rid, bool(request.document.get("certificate")), answer, outcome,
            tracer.captured[rid]))
    return tracer, rows, fingerprints


REWRITING_SPANS = ("rewriting.pass", "rewriting.vanishing_build")
COVERED_SPANS = ("generators.generate", "circuit.validate",
                 "modeling.model_build", "reduction") + REWRITING_SPANS


def per_layer(tracer, rows, fingerprints) -> dict:
    count = len(rows)
    self_times = tracer.self_times()
    totals: dict[str, float] = {}
    for per_request in self_times.values():
        for name, seconds in per_request.items():
            totals[name] = totals.get(name, 0.0) + seconds

    def mean_time(*names):
        return sum(totals.get(name, 0.0) for name in names) / count

    def mean_count(key):
        return sum(f[key] for f in fingerprints) / count

    probes = sum(f["vanishing.probes"] for f in fingerprints)
    hits = sum(f["vanishing.cache_hits"] for f in fingerprints)
    certificates = [f["certify.bytes"] for f in fingerprints
                    if f["certify.bytes"]]
    plain = sum(row["plain_s"] for row in rows)
    traced = sum(row["traced_s"] for row in rows)
    values = {
        "generators.generate_s": mean_time("generators.generate"),
        "circuit.validate_s": mean_time("circuit.validate"),
        "modeling.model_build_s": mean_time("modeling.model_build"),
        "circuit.gates": mean_count("circuit.gates"),
        "circuit.parse_verilog_s": mean_time("circuit.parse_verilog"),
        "rewriting.s": mean_time(*REWRITING_SPANS),
        "vanishing.cache_hit_ratio": hits / probes if probes else 0.0,
        "reduction.s": mean_time("reduction"),
        "counterexample.s": mean_time("engine.verify"),
        "sat.cross_check_s": mean_time("sat.cross_check"),
        "certify.build_s": mean_time("certify.build"),
        "certify.check_s": mean_time("certify.check"),
        "certify.bytes": (sum(certificates) / len(certificates)
                          if certificates else 0.0),
        "certify.failures": mean_count("certify.failed"),
        "service.overhead_s": mean_time("service.submit"),
        "server.transport_s": statistics.median(r["transport_s"] for r in rows),
        "server.response_bytes": sum(r["response_bytes"] for r in rows) / count,
        "trace.overhead_share": (traced - plain) / plain,
        "trace.coverage_share": mean_time(*COVERED_SPANS) * count / traced,
    }
    for key in ("rewriting.substitution_steps", "rewriting.affected_terms",
                "rewriting.rejected_substitutions", "rewriting.peak_tail_terms",
                "rewriting.cvm", "vanishing.probes", "vanishing.witness_hits",
                "reduction.substitutions", "reduction.peak_monomials",
                "reduction.affected_terms", "reduction.modulus_removed_terms",
                "sat.conflicts"):
        values[key] = mean_count(key)
    return values


# -- main -------------------------------------------------------------------------

def _metrics(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _print_metrics(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and everything it starts (the server, the
    # set-up probes): the requests, the server's work and the speed
    # probes then all run on the core whose speed the probes measure.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    _load_program()
    from perfbench.workloads import WORKLOADS, schedule
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")

    if args.setup_only:
        target = set_up(workload)
        print(READY, flush=True)
        target.close()
        return 0

    start = time.perf_counter()
    target = set_up(workload)
    own_setup_s = time.perf_counter() - start
    try:
        pool = workload.pool()
    except BaseException:
        target.close()
        raise
    passes = 1 if args.trace else workload.passes(args.seconds)
    stream = schedule(pool[::workload.traced_stride] if args.trace else pool,
                      passes, f"{workload.name}/{args.seed}")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            tracer, rows, fingerprints = traced_run(stream, target)
            peak_rss = 0.0
        else:
            samples, setups = timed_run(stream, target,
                                        lambda: probe_setup(args))
            peak_rss = target.peak_rss_mb()
    except WrongVerdict as error:
        print(f"perfbench: WRONG VERDICT: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(stream),
                          "failed": len(stream), "metrics": {}}))
        return 1
    finally:
        target.close()

    print(f"perfbench {workload.name}: seed {args.seed}, {passes} pass(es) of "
          f"{len(stream) // passes} requests, {len(stream)} sent one at a time"
          + (", traced" if args.trace else ""))
    if args.trace:
        metrics, detail, failed = _report_traced(workload, args.seed, tracer,
                                                 rows, fingerprints)
    else:
        metrics, detail, failed = _report_timed(workload, samples, setups,
                                                own_setup_s, peak_rss)
    print("metrics:")
    _print_metrics(metrics)
    detail["metrics"] = metrics
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps({"correct": True, "attempted": len(stream),
                      "failed": failed, "metrics": metrics}))
    return 0


def _report_traced(workload, seed, tracer, rows, fingerprints):
    metrics = _metrics(per_layer(tracer, rows, fingerprints), PER_LAYER)
    canonical = json.dumps(fingerprints, sort_keys=True, indent=0)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    (OUT_DIR / f"{workload.name}-seed{seed}-fingerprint.json"
     ).write_text(canonical + "\n")
    print(f"  counter fingerprint sha256 {digest}")
    print(f"  tracing overhead {metrics['trace.overhead_share']['value']:+.2%}"
          f" of untraced request time; layer self times cover "
          f"{metrics['trace.coverage_share']['value']:.1%} of traced "
          "request time")
    detail = {"spans": tracer.spans, "rows": rows,
              "fingerprint_sha256": digest}
    return metrics, detail, sum(f["outcome"] == "error" for f in fingerprints)


def _report_timed(workload, samples, setups, own_setup_s, peak_rss):
    values, detail = end_to_end(samples, setups, workload, peak_rss)
    detail.update({"samples_list": samples, "setup_probes": setups,
                   "own_setup_s": own_setup_s})
    print("  set-up probes (raw s -> corrected s) "
          + ", ".join(f"{s['setup_s']:.3f}->{s['corrected_s']:.3f}"
                      for s in setups)
          + f"; this run's own set-up {own_setup_s:.3f} s")
    print(f"  mean drift factor {detail['drift_factor']:.4f}; raw "
          + ", ".join(f"{name} {value:.6g}"
                      for name, value in detail["raw"].items()))
    print(f"  latency_tail_s is p{detail['tail_percentile']:g} with "
          f"{detail['samples_beyond_tail']} of {detail['samples']} samples "
          "beyond it")
    for label in ("p50", "tail"):
        ratio = detail[f"{label}_cliff"]
        print(f"  {label}: samples around it span x{ratio:.2f}"
              + ("" if ratio <= CLIFF_LIMIT else
                 f" > x{CLIFF_LIMIT}: WARNING, it sits between two "
                 "request classes"))
    for line in sorted({s["rid"].split("/")[0] + ": " + s["error"][:100]
                        for s in samples if s["outcome"] == "error"}):
        print(f"  error: {line}")
    return _metrics(values, END_TO_END), detail, detail["errors"]


if __name__ == "__main__":
    sys.exit(main())
