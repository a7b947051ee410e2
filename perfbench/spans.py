"""In-memory spans around calls into btauthsim's modules.

Each patch point is a name in the module where the caller looks it up, so
the wrapper sees exactly the calls that caller makes (``simnet.handle`` is
the protocol state machine as the event loop calls it). A span records its
name, start, end, parent span and run id; spans stay in a flat array until
the benchmark reads them. Self time is a span's duration minus the time its
child spans cover.
"""

import time
from array import array

from btauthsim import adversary, cli, crypto, simnet

import workloads

RUN_SPAN = "cli.run_scenario"

# (module, name the caller looks up, span name)
POINTS = [
    (workloads, "run_scenario", RUN_SPAN),
    (workloads, "validate", "cli.validate"),
    (workloads, "serialise", "simnet.serialise"),
    (cli, "run", "simnet.run"),
    (cli, "new_device", "protocol.new_device"),
    (cli, "init_key", "crypto.init_key"),
    (cli, "has_full_order", "crypto.has_full_order"),
    (cli, "delay_detector", "simnet.delay_detector"),
    (cli, "verdict", "adversary.verdict"),
    (simnet, "handle", "protocol.handle"),
    (adversary, "intercept", "adversary.intercept"),
    (adversary, "e1", "crypto.e1"),
    (crypto, "mixhash128", "crypto.mixhash128"),
    (crypto, "modexp", "crypto.modexp"),
    (crypto, "is_prime", "crypto.is_prime"),
]
NAMES = [name for *_, name in POINTS]

# span layout in Tracer.buf: name index, parent offset, run id, start ns, end ns
_WIDTH = 5


class Tracer:
    def __init__(self):
        self.buf = array("q")
        # run id of the current cli.run_scenario span; -1 is set-up
        self.run = -1
        self._stack = [-1]
        self._saved = []

    def install(self) -> None:
        for index, (module, attr, _) in enumerate(POINTS):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(index, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name_index: int, fn):
        buf, stack, clock = self.buf, self._stack, time.perf_counter_ns
        opens_run = NAMES[name_index] == RUN_SPAN

        def traced(*args, **kwargs):
            if opens_run:
                self.run += 1
            offset = len(buf)
            stack.append(offset)
            buf.extend((name_index, stack[-2], self.run, clock(), 0))
            try:
                return fn(*args, **kwargs)
            finally:
                buf[offset + 4] = clock()
                stack.pop()

        return traced

    def summary(self, first_run: int, end_run: int, slowdowns: list[float] | None = None) -> "Summary":
        """Totals over the spans of run ids first_run .. end_run - 1. With
        ``slowdowns`` (one per run), each run's times are divided by its
        slowdown, giving reference time as for the end-to-end figures."""
        buf = self.buf
        child_ns: dict[int, int] = {}
        for offset in range(0, len(buf), _WIDTH):
            parent = buf[offset + 1]
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + buf[offset + 4] - buf[offset + 3]
        out = Summary(end_run - first_run)
        sim_runs: dict[int, list[int]] = {}
        for offset in range(0, len(buf), _WIDTH):
            run = buf[offset + 2]
            if not first_run <= run < end_run:
                continue
            name = NAMES[buf[offset]]
            scale = 1 / slowdowns[run - first_run] if slowdowns else 1
            total = (buf[offset + 4] - buf[offset + 3]) * scale
            own = total - child_ns.get(offset, 0) * scale
            calls, total_ns, self_ns = out.spans.get(name, (0, 0, 0))
            out.spans[name] = (calls + 1, total_ns + total, self_ns + own)
            if name == "simnet.run":
                sim_runs.setdefault(run, []).append(total)
            parent = buf[offset + 1]
            if name == "crypto.e1" and parent >= 0 and NAMES[buf[parent]] == "adversary.verdict":
                out.verdict_e1_calls += 1
        # every event loop of a run but its last is baseline calibration
        out.calibration_ns = sum(sum(loops[:-1]) for loops in sim_runs.values())
        return out


class Summary:
    def __init__(self, runs: int):
        self.runs = runs
        # span name -> (calls, total ns, self ns)
        self.spans: dict[str, tuple[int, float, float]] = {}
        self.calibration_ns = 0
        self.verdict_e1_calls = 0

    def calls(self, name: str) -> float:
        """Calls per run."""
        return self.spans.get(name, (0, 0, 0))[0] / self.runs

    def us(self, name: str) -> float:
        """Time per run, in microseconds, including child spans."""
        return self.spans.get(name, (0, 0, 0))[1] / self.runs / 1e3

    def self_us(self, name: str) -> float:
        """Self time per run, in microseconds."""
        return self.spans.get(name, (0, 0, 0))[2] / self.runs / 1e3
