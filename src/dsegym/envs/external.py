"""Cost function backed by an external simulator process (stdin/stdout).

Wire protocol (one JSON record per line, UTF-8; a handshake and a response
hold exactly the keys listed, and any other key is a protocol error):

  handshake   child -> {"protocol": 1, "metrics": [names]}
  request     parent -> {"id": n, "design": {param: value}, "workload": id}
  response    child -> {"id": n, "metrics": {name: number}, "valid": bool}

A :class:`SimulatorProcess` owns exactly one child and serializes its
requests, each of which names the workload id the process was made with.
It is a ``CostFn``, so :class:`~dsegym.envs.base.SyntheticEnv` calls it
once per step, like a built-in cost model::

    sim = SimulatorProcess([sys.executable, "my_sim.py"], "my-workload", timeout_s=10.0)
    env = SyntheticEnv("my-sim", space, reward_spec, cost_fn=sim,
                       reference_design=reference)

Failure policy: when a request times out or the child dies, the child is
killed (pipes closed, reader joined) and relaunched while restarts remain;
the failed request still raises, and once no restart is left every later
request raises :class:`SimulatorCrashed`.  A failed handshake kills the
child it started before raising.  A malformed response raises
:class:`SimulatorProtocolError` and leaves the child running.
"""

from __future__ import annotations

import contextlib
import json
import queue
import subprocess
import threading

from ..core import METRICS, STRINGS, read_json

PROTOCOL_VERSION = 1


class SimulatorTimeout(RuntimeError):
    def __init__(self, msg: str = "simulator timeout"):
        super().__init__(msg)


class SimulatorProtocolError(RuntimeError):
    def __init__(self, msg: str = "protocol error", raw: str = ""):
        super().__init__(msg)
        self.raw = raw


class SimulatorCrashed(RuntimeError):
    def __init__(self, msg: str = "simulator crashed", returncode: int | None = None):
        super().__init__(msg)
        self.returncode = returncode


class _Child:
    """One simulator process plus a reader thread feeding a line queue."""

    def __init__(self, command: list[str]):
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)  # EOF marker

    def read_line(self, timeout_s: float) -> str:
        try:
            line = self.lines.get(timeout=timeout_s)
        except queue.Empty:
            raise SimulatorTimeout() from None
        if line is None:
            code = self.proc.wait()
            raise SimulatorCrashed(f"simulator crashed (exit code {code})", returncode=code)
        return line

    def write_line(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            code = self.proc.poll()
            raise SimulatorCrashed(f"simulator crashed (exit code {code})", returncode=code)

    def kill(self, timeout_s: float) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        # the child's end of the pipe is gone, so the reader sees EOF
        self._reader.join(timeout_s)
        # a write that failed leaves unflushed text; close drops it and the pipe
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.proc.stdout.close()


class SimulatorProcess:
    """``CostFn`` that asks a simulator child process for each design's
    metrics under the workload `workload_id`."""

    def __init__(self, command: list[str], workload_id: str,
                 timeout_s: float = 10.0, max_restarts: int = 0):
        if timeout_s <= 0:
            raise ValueError(f"timeout must be positive, got {timeout_s}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.command = list(command)
        self.workload_id = workload_id
        self.timeout_s = timeout_s
        self.max_restarts = max_restarts
        self.restarts_used = 0
        self._next_id = 0
        self._child: _Child | None = self._launch()

    def _launch(self) -> _Child:
        child = _Child(self.command)
        try:
            _read(child.read_line(self.timeout_s), _HANDSHAKE_FIELDS, "handshake")
        except BaseException:
            child.kill(self.timeout_s)
            raise
        return child

    def __call__(self, design: dict) -> tuple[dict, bool]:
        if self._child is None:
            raise SimulatorCrashed("simulator crashed (not running)")
        request_id = self._next_id
        self._next_id += 1
        request = {"id": request_id, "design": design, "workload": self.workload_id}
        try:
            self._child.write_line(json.dumps(request, separators=(",", ":")))
            line = self._child.read_line(self.timeout_s)
        except (SimulatorTimeout, SimulatorCrashed):
            self.close()
            if self.restarts_used < self.max_restarts:
                self.restarts_used += 1
                self._child = self._launch()
            raise
        return _parse_response(line, request_id)

    def close(self) -> None:
        if self._child is not None:
            self._child.kill(self.timeout_s)
            self._child = None

    def __enter__(self) -> "SimulatorProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_HANDSHAKE_FIELDS = {
    "protocol": ((int,), PROTOCOL_VERSION.__eq__, str(PROTOCOL_VERSION)),
    "metrics": STRINGS,
}
_RESPONSE_FIELDS = {"id": ((int,), None, "an int"), "metrics": METRICS,
                    "valid": ((bool,), None, "a bool")}


def _read(line: str, fields: dict, what: str) -> dict:
    """`line` checked against `fields`; any fault raises `SimulatorProtocolError`."""
    try:
        return read_json(line, fields, what)
    except ValueError as exc:
        raise SimulatorProtocolError(f"protocol error: {exc}", raw=line) from None


def _parse_response(line: str, request_id: int) -> tuple[dict, bool]:
    response = _read(line, _RESPONSE_FIELDS, "response")
    if response["id"] != request_id:
        raise SimulatorProtocolError(
            f"protocol error: response id {response['id']} != request id {request_id}", raw=line
        )
    if not response["valid"]:
        return {}, False
    return {name: float(value) for name, value in response["metrics"].items()}, True
