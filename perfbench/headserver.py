"""Stand-in HEAD server for the `probe-http` workload, run as its own process.

Listens on 127.0.0.1 and answers by path:

    /status/<code>/<id>   the status line <code> at once (200, 204, 301, 302, 404, ...)
    /stall/<id>           reads the request, then never answers
    /drip/<id>            sends the status line and each header line DRIP_S apart

It also holds a second port that is bound but never listens, so a connection
to it is refused.  Every response closes its connection, so a client keeps
no idle connection open between probes.

The first stdout line is ``{"port": P, "refused_port": Q}``; end of stdin
shuts the server down, so it never outlives the process that started it.

Run: ``python3 perfbench/headserver.py``
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time

DRIP_S = 0.1
DRIP_HEADERS = ("Content-Type: video/mp2t", "Cache-Control: no-cache", "Content-Length: 0")
STALL_CAP_S = 10.0  # a stalled connection is dropped after this, if the client never hangs up


class Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        try:
            self._answer()
        except OSError:
            pass  # the client gave up; nothing to answer

    def _answer(self) -> None:
        request = self.rfile.readline(8192).decode("latin-1").split()
        while self.rfile.readline(8192) not in (b"\r\n", b"\n", b""):
            pass
        parts = request[1].strip("/").split("/") if len(request) >= 2 else ["bad"]
        kind = parts[0]
        if kind == "status":
            code = int(parts[1])
            self.wfile.write(
                f"HTTP/1.1 {code} X\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".encode()
            )
        elif kind == "stall":
            self.connection.settimeout(STALL_CAP_S)
            self.rfile.read(1)  # returns when the client closes
        elif kind == "drip":
            for line in ("HTTP/1.1 200 OK", *DRIP_HEADERS, "Connection: close", ""):
                time.sleep(DRIP_S)
                self.wfile.write(f"{line}\r\n".encode())
                self.wfile.flush()
        else:
            self.wfile.write(b"HTTP/1.1 400 X\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")


class Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 64


def main() -> int:
    refused = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    refused.bind(("127.0.0.1", 0))  # bound, never listening: connections are refused
    with Server(("127.0.0.1", 0), Handler) as server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        print(
            json.dumps({"port": server.server_address[1], "refused_port": refused.getsockname()[1]}),
            flush=True,
        )
        sys.stdin.read()  # returns at end of input
        server.shutdown()
        thread.join(timeout=5.0)
    refused.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
