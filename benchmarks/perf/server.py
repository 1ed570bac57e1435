"""Server lifecycle and the load generator's HTTP connection.

The server is the real deployable: ``python -m repro.cli serve --port 0``
in a subprocess with a two-tenant file. The generator speaks the same
small HTTP/1.1 slice over a blocking keep-alive socket, so its own cost
per request stays far below the server's.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

from spec import TENANTS

SRC = Path(__file__).resolve().parents[2] / "src"
BOOT_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0


class Connection:
    """One keep-alive client connection, one request in flight."""

    def __init__(self, port: int, token: str = "") -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        auth = f"authorization: Bearer {token}\r\n" if token else ""
        self._tail = f" HTTP/1.1\r\nhost: bench\r\n{auth}\r\n"
        self._buffer = b""

    def send(self, target: str) -> None:
        self.sock.sendall(f"GET {target}{self._tail}".encode("latin-1"))

    def read_head(self) -> tuple[int, dict[str, str]]:
        while b"\r\n\r\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(lines[0].split(" ", 2)[1]), headers

    def read_body(self, headers: dict[str, str]) -> bytes:
        length = int(headers.get("content-length", "0"))
        parts, got = [self._buffer], len(self._buffer)
        while got < length:
            chunk = self.sock.recv(min(1 << 20, length - got))
            if not chunk:
                raise ConnectionError("server closed mid-body")
            parts.append(chunk)
            got += len(chunk)
        body = b"".join(parts)
        self._buffer = body[length:]
        return body[:length]

    def get(self, target: str) -> tuple[int, dict[str, str], bytes]:
        self.send(target)
        status, headers = self.read_head()
        return status, headers, self.read_body(headers)

    def get_json(self, target: str) -> dict:
        status, _, body = self.get(target)
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


class Server:
    """``repro serve`` in a subprocess over an existing storage root."""

    def __init__(self, root: Path, workdir: Path, extra_args=()) -> None:
        tenants = workdir / "tenants.json"
        tenants.write_text(json.dumps(
            [{"name": name, "token": token} for name, token in TENANTS]
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(workdir)
        self._stderr = open(workdir / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--root", str(root), "--port", "0",
             "--tenants", str(tenants), *extra_args],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env,
        )
        try:
            self.port = self._await_boot()
        except BaseException:
            self.stop()
            raise

    def _await_boot(self) -> int:
        """Parse the bound port from stdout, then poll /healthz for a 200."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        banner = b""
        while b"http://" not in banner or not banner.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server printed no address in time")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited {self.proc.wait()} before binding"
                    )
                banner += chunk
        port = int(re.search(rb"http://[^:]+:(\d+)", banner).group(1))
        while True:
            try:
                conn = Connection(port)
                try:
                    if conn.get("/healthz")[0] == 200:
                        return port
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("server never answered /healthz")
            time.sleep(0.005)

    def connect(self, tenant: int = 0) -> Connection:
        return Connection(self.port, TENANTS[tenant % len(TENANTS)][1])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process; read before terminating it."""
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate, escalate to kill on timeout, always reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def vm_hwm_mb(pid: int | str = "self") -> float:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0
