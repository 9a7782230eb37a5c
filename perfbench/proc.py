"""Child processes of one benchmark run: the server and the suite's tools.

Every child is started through ``launch.py`` with the interpreter running
the benchmark, an environment stripped of ``AA_*`` settings, and is
stopped and waited for before the run ends.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
REFERENCE = os.path.join(HERE, "reference.py")
TOOL_TIMEOUT_S = 120
STOP_TIMEOUT_S = 30


class BenchError(Exception):
    """The run could not be carried out; no numbers are reported."""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Bench:
    """Work directory and child processes of one run."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("AA_")}
        self.env["PYTHONHASHSEED"] = "0"
        self._children: list[subprocess.Popen] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _command(self, entry: str, spans: str | None, args: list[str]) -> list[str]:
        return [sys.executable, LAUNCH, entry, spans or "-", "--", *args]

    def run_tool(self, entry: str, args: list[str],
                 spans: str | None = None) -> tuple[int, float, str, str]:
        """Run one entry point to completion: exit code, wall seconds, out, err."""
        start = perf_counter()
        try:
            done = subprocess.run(self._command(entry, spans, args), env=self.env,
                                  cwd=self.workdir, capture_output=True, text=True,
                                  timeout=TOOL_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return -1, perf_counter() - start, "", f"timeout: {exc}"
        return done.returncode, perf_counter() - start, done.stdout, done.stderr

    def reference(self, runs: int) -> list[float]:
        """Wall seconds of ``runs`` runs of the reference work."""
        walls = []
        for _ in range(runs):
            start = perf_counter()
            done = subprocess.run([sys.executable, REFERENCE], env=self.env,
                                  cwd=self.workdir, capture_output=True,
                                  timeout=TOOL_TIMEOUT_S)
            walls.append(perf_counter() - start)
            if done.returncode != 0:
                raise BenchError(f"reference work exited with code {done.returncode}")
        return walls

    def spawn(self, entry: str, args: list[str], spans: str | None,
              log: str) -> subprocess.Popen:
        with open(log, "ab") as out:
            proc = subprocess.Popen(self._command(entry, spans, args), env=self.env,
                                    cwd=self.workdir, stdout=out,
                                    stderr=subprocess.STDOUT)
        self._children.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> int:
        """Interrupt a child, as Ctrl-C would, and wait for it to exit."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self._children:
            self._children.remove(proc)
        return proc.returncode

    def close(self) -> None:
        for proc in list(self._children):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self._children.clear()


class Server:
    """An ``aa-server`` child; ``setup_s`` runs from spawn until its port accepts."""

    def __init__(self, bench: Bench, journal: str, spans: str | None):
        self.bench = bench
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        start = perf_counter()
        self.proc = bench.spawn("server", ["--host", "127.0.0.1", "--port",
                                           str(self.port), "--journal", journal],
                                spans, bench.path("server.log"))
        self._wait_accepting(start + 60)
        self.setup_s = perf_counter() - start

    def _wait_accepting(self, deadline: float) -> None:
        while True:
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=1):
                    return
            except OSError:
                if self.proc.poll() is not None:
                    raise BenchError(f"server exited with code {self.proc.returncode}:"
                                     f"\n{self.log_tail()}") from None
                if perf_counter() > deadline:
                    raise BenchError("server did not accept within 60 s") from None
                time.sleep(0.002)

    def log_tail(self) -> str:
        with open(self.bench.path("server.log"), errors="replace") as fh:
            return fh.read()[-2000:]

    def wait_serving(self) -> None:
        """Block until the request loop answers; an interrupt before it is fatal."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/perfbench-probe")
            connection.getresponse().read()
        finally:
            connection.close()

    def stop(self) -> int:
        return self.bench.stop(self.proc)
