"""The ``serve`` workload: a closed loop against a ``repro serve`` daemon.

Each round boots a fresh daemon at its defaults (one worker) and opens
two sessions from one process, one thread each; each sends its next
request only when the previous reply has arrived.  A session declares
its variables, then for each of its seeded random DNFs:

* builds it gate by gate (``apply`` with ``not``/``and``/``or``);
* sends ``approx`` rua, sp and hb (with the RUA size as budget) and ua,
  ``decomp`` cofactor, disjoint and band, and ``count``;
* checks each approximation with ``leq`` against f and each factor
  pair with ``and``, whose handle must be f's own;
* releases every handle the DNF produced.

An operation is one request.  The daemon's peak RSS and its CPU time
come from ``/proc/<pid>``.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.decomp import DECOMPOSERS
from repro.serve.client import Client, ServerError

from . import checks
from .common import Round, cpu_seconds, quantile, vm_hwm_mb
from .inputs import serve_scripts
from .spans import Tracer, call

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = 2
#: DNFs per session and the shape of each: variables, cubes, literals.
DNFS, NVARS, TERMS, WIDTH = 24, 18, 16, 6
APPROXIMATIONS = ("rua", "sp", "hb", "ua")
BUDGETED = ("sp", "hb")
#: Daemon boots per untraced round; the round's ``setup_s`` is their
#: median and the last daemon serves the round.  A traced round boots
#: once, so its ``serve.boot_s`` is one boot's.
SETUPS = 3
BANNER = re.compile(r"listening on (\S+):(\d+)")


def prepare(seed: int):
    """The request scripts and the numpy truth-table count of each DNF."""
    scripts = serve_scripts(seed, SESSIONS, DNFS, NVARS, TERMS, WIDTH)
    counts = [[checks.dnf_count(NVARS, cubes) for cubes in script]
              for script in scripts]
    return scripts, counts


class _Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        match = BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _Session:
    """One client session running its script; records every request.

    A request answered with an error reply counts as failed; the DNF it
    belonged to is abandoned (its handles are still released) and
    leaves no outcome to check.  Connection errors end the session.
    """

    def __init__(self, daemon: _Daemon, script, tracer: Tracer | None
                 ) -> None:
        self.daemon = daemon
        self.script = script
        self.tracer = tracer
        #: (category, milliseconds) per request
        self.latency: list[tuple[str, float]] = []
        #: requests answered with an error reply
        self.failed = 0
        #: per DNF, None if it was abandoned, else: f handle, count
        #: reply, approx replies, decomp replies, leq answers, and-check
        #: handles
        self.outcomes: list[dict | None] = []
        self.stats: dict = {}
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with Client(self.daemon.host, self.daemon.port) as client:
                self._run(client)
        except BaseException as exc:  # re-raised by the main thread
            self.error = exc

    def _request(self, client: Client, category: str, verb: str,
                 params: dict) -> dict:
        call = client.call
        if self.tracer is not None:
            call = self.tracer.wrap(f"serve.{category}", call)
        start = time.perf_counter()
        try:
            return call(verb, params)
        except ServerError:
            self.failed += 1
            raise
        finally:
            self.latency.append((category,
                                 (time.perf_counter() - start) * 1000.0))

    def _run(self, client: Client) -> None:
        variables = [self._request(client, "build", "var",
                                   {"name": f"x{i}"})["handle"]
                     for i in range(NVARS)]
        for number, cubes in enumerate(self.script):
            made: set[str] = set()
            try:
                self.outcomes.append(
                    self._dnf(client, variables, cubes, made))
            except ServerError as exc:
                print(f"serve: dnf {number}: {exc}", file=sys.stderr)
                self.outcomes.append(None)
            for handle in sorted(made - set(variables)):
                try:
                    self._request(client, "release", "release",
                                  {"f": handle})
                except ServerError:
                    pass  # counted in self.failed
        self.stats = client.stats()["session"]["manager"]

    def _dnf(self, client: Client, variables: list[str], cubes,
             made: set[str]) -> dict:
        """Build one DNF, analyse it and check the replies; every
        handle made goes into ``made``."""
        def request(category: str, verb: str, params: dict) -> dict:
            reply = self._request(client, category, verb, params)
            for key in ("handle", "g", "h"):
                value = reply.get(key)
                made.add(value["handle"] if isinstance(value, dict)
                         else value)
            made.discard(None)
            return reply

        f = None
        for cube in cubes:
            term = None
            for index, positive in cube:
                literal = variables[index] if positive else request(
                    "build", "apply",
                    {"op": "not", "f": variables[index]})["handle"]
                term = literal if term is None else request(
                    "build", "apply",
                    {"op": "and", "f": term, "g": literal})["handle"]
            f = term if f is None else request(
                "build", "apply", {"op": "or", "f": f, "g": term})["handle"]
        approx = {}
        rua = approx["rua"] = request(
            "analyze", "approx", {"method": "rua", "f": f, "threshold": 0})
        for method in APPROXIMATIONS[1:]:
            budget = rua["nodes"] if method in BUDGETED else 0
            approx[method] = request(
                "analyze", "approx",
                {"method": method, "f": f, "threshold": budget})
        decomp = {method: request("analyze", "decomp",
                                  {"method": method, "f": f})
                  for method in DECOMPOSERS}
        count = request("analyze", "count", {"f": f})
        leq = {method: request("check", "apply",
                               {"op": "leq", "f": reply["handle"],
                                "g": f})["value"]
               for method, reply in approx.items()}
        conj = {method: request("check", "apply",
                                {"op": "and", "f": reply["g"]["handle"],
                                 "g": reply["h"]["handle"]})["handle"]
                for method, reply in decomp.items()}
        return {"f": f, "count": count, "approx": approx, "decomp": decomp,
                "leq": leq, "conj": conj}


def run_round(seed: int, tracer: Tracer | None = None,
              context=None) -> Round:
    scripts, counts = context if context is not None else prepare(seed)
    boots = []
    for number in range(SETUPS if tracer is None else 1):
        if number:
            daemon.stop()
        begin = time.perf_counter()
        daemon = call(tracer, "serve.boot", _Daemon)
        boots.append(time.perf_counter() - begin)
    try:
        sessions = [_Session(daemon, script, tracer) for script in scripts]
        threads = [threading.Thread(target=s.run) for s in sessions]
        daemon_cpu = cpu_seconds(daemon.proc.pid)
        client_cpu = time.process_time()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        client_cpu = time.process_time() - client_cpu
        daemon_cpu = cpu_seconds(daemon.proc.pid) - daemon_cpu
        peak_rss = vm_hwm_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    for session in sessions:
        if session.error is not None:
            raise session.error
    latency = [entry for s in sessions for entry in s.latency]
    by_category = {}
    for category, ms in latency:
        by_category.setdefault(category, []).append(ms)
    stats = [s.stats for s in sessions]
    out = Round(
        setup_s=statistics.median(boots), timed_s=wall,
        op_ms=[ms for _, ms in latency], attempted=len(latency),
        failed=sum(s.failed for s in sessions), exact={},
        peak_rss_mb=peak_rss,
        counters={"cache_hits": sum(s["cache_hits"] for s in stats),
                  "cache_lookups": sum(s["cache_hits"] + s["cache_misses"]
                                       for s in stats),
                  "cache_entries": sum(s["cache_size"] for s in stats),
                  "final_nodes": sum(s["nodes"] for s in stats),
                  "gc_count": sum(s["gc_count"] for s in stats),
                  "gc_pause_s": sum(s["gc_pause_total"] for s in stats)},
        layer={"serve.build_p50_ms": quantile(by_category["build"], 0.5),
               "serve.analyze_p50_ms": quantile(by_category["analyze"],
                                                0.5),
               "serve.daemon_cpu_s": daemon_cpu,
               "serve.client_cpu_s": client_cpu})
    gains, ratios = [], []
    for session, session_counts in zip(sessions, counts):
        for number, (outcome, want) in enumerate(
                zip(session.outcomes, session_counts)):
            if outcome is None:
                continue
            name = f"session dnf {number}"
            count = outcome["count"]
            out.check(checks.check_count, name, count["sat_count"], want)
            for method, ok in outcome["leq"].items():
                if not ok:
                    out.errors.append(f"{name} {method}: leq g f is false")
            for method, handle in outcome["conj"].items():
                if handle != outcome["f"]:
                    out.errors.append(f"{name} {method}: and g h is "
                                      f"{handle}, not f {outcome['f']}")
            gains += [reply["density"] / count["density"]
                      for reply in outcome["approx"].values()
                      if reply["density"] > 0]
            ratios += [max(reply["g"]["nodes"], reply["h"]["nodes"])
                       / count["nodes"]
                       for reply in outcome["decomp"].values()]
    out.exact = {"peak_nodes": sum(s["peak_nodes"] for s in stats),
                 "subset_density_gain": out.geomean("density gains", gains),
                 "decomp_factor_ratio": out.geomean("factor ratios",
                                                    ratios)}
    return out
