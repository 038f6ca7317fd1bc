"""Launch ``repro serve --listen`` in its own process and talk to its control
routes.

The server is started exactly as it is deployed -- ``python -m repro serve
--listen 127.0.0.1:0`` with the dataset CSV and the workload's flags -- or,
for the traced run, through :mod:`traced_server`, which installs the timing
wrappers first and then calls the same CLI entry point.  Control traffic
(``/v1/healthz``, warm-up, ``/v1/stats``) uses a short-lived connection of
its own, only outside the measured phases.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

_LISTENING = re.compile(r"listening on http://([^:/]+):(\d+)/")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One server process: launch, wait until healthy, inspect, stop."""

    def __init__(self, root: Path, csv_path: Path, flags: Sequence[str], *,
                 spans_path: Optional[Path] = None, log_path: Path):
        self.root = root
        command = [sys.executable, "-u"]
        if spans_path is None:
            command += ["-m", "repro"]
        else:
            command += [str(root / "perfbench" / "traced_server.py"),
                        "--spans", str(spans_path)]
        self.command = command + ["serve", "--listen", "127.0.0.1:0",
                                  "--input", str(csv_path), "--requests", "1",
                                  *flags]
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.launched = 0.0

    def start(self, timeout: float = 60.0) -> None:
        """Launch and return once ``/v1/healthz`` answers."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        self.launched = time.monotonic()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(self.command, cwd=self.root, env=env,
                                     stdout=subprocess.PIPE, stderr=self._log)
        deadline = self.launched + timeout
        self.port = self._read_port(deadline)
        while True:
            try:
                if self.get("/v1/healthz").get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not answer /v1/healthz")
            time.sleep(0.005)

    def _read_port(self, deadline: float) -> int:
        stdout = self.proc.stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            buffered = b""
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    break
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _LISTENING.search(buffered.decode("utf-8", "replace"))
                if match:
                    self.host = match.group(1)
                    return int(match.group(2))
        self.stop()
        raise RuntimeError("server exited or did not listen; see %s"
                           % self.log_path)

    # ------------------------------------------------------------------ #
    # control routes (synchronous, outside the measured phases)
    # ------------------------------------------------------------------ #

    def _http(self, method: str, path: str, body: Optional[bytes] = None) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = json.loads(response.read() or b"{}")
            if response.status != 200:
                raise RuntimeError("%s %s answered %d: %s"
                                   % (method, path, response.status, payload))
            return payload
        finally:
            connection.close()

    def get(self, path: str) -> dict:
        """``GET`` a control route."""
        return self._http("GET", path)

    def post(self, record: dict) -> dict:
        """Serve one request record synchronously (warm-up traffic)."""
        return self._http("POST", "/v1/request", json.dumps(record).encode())

    def proc_status(self) -> Dict[str, float]:
        """Peak RSS (MB) and CPU seconds (user + system) from ``/proc``."""
        pid = self.proc.pid
        status = Path("/proc/%d/status" % pid).read_text()
        hwm_kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        stat = Path("/proc/%d/stat" % pid).read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        cpu = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        return {"rss_mb": hwm_kb / 1024.0, "cpu_s": cpu}

    def stop(self, timeout: float = 30.0) -> None:
        """Interrupt the server (it drains admitted requests and exits) and
        wait for it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        finally:
            self._log.close()
