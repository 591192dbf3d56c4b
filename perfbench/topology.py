"""Serving processes of one run, and what /proc says about them."""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServingProcess:
    """One ``repro.cli`` process started through the launcher."""

    def __init__(self, role: str, cli_args: list[str], *, workdir: str,
                 tag: str, trace: bool) -> None:
        self.role = role
        self.dump_path = os.path.join(workdir, f"{tag}.dump.json")
        self.log_path = os.path.join(workdir, f"{tag}.log")
        if os.path.exists(self.dump_path):
            os.unlink(self.dump_path)
        command = [sys.executable, LAUNCHER, "--dump", self.dump_path]
        if trace:
            command.append("--trace")
        command += ["--", *cli_args]
        with open(self.log_path, "wb") as log:
            self.popen = subprocess.Popen(command, stdout=subprocess.PIPE,
                                          stderr=log, cwd=os.path.dirname(HERE))
        self.pid = self.popen.pid
        self.address: tuple[str, int] | None = None

    def wait_ready(self, timeout: float = 120.0) -> tuple[str, int]:
        """Block until the process prints its ``listening`` banner."""
        deadline = time.monotonic() + timeout
        stream = self.popen.stdout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(stream, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError(f"{self.role} did not start in "
                                       f"{timeout:.0f}s; see {self.log_path}")
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"{self.role} exited before listening; "
                                       f"see {self.log_path}")
                buffer += chunk
        banner = json.loads(buffer.split(b"\n", 1)[0])
        host, port = banner["listening"].rsplit(":", 1)
        self.address = (host, int(port))
        return self.address

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def read_dump(self) -> dict:
        with open(self.dump_path, encoding="utf-8") as handle:
            return json.load(handle)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def stop_all(processes: list[ServingProcess], timeout: float = 30.0) -> None:
    """SIGTERM every process (a graceful drain), then wait for each."""
    for process in processes:
        if process.popen.poll() is None:
            process.popen.send_signal(signal.SIGTERM)
    for process in processes:
        try:
            process.popen.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.popen.kill()
            process.popen.wait()
        if process.popen.stdout is not None:
            process.popen.stdout.close()
