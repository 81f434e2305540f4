"""Local chat-completion endpoint for the benchmark.

Speaks the JSON contract that restory's `HttpProvider` posts: a POST whose
body holds `prompt` gets back `{"text": reply}`, where the reply is looked
up by the prompt's last fenced code block, the same rule `EchoProvider`
uses. Each POST sleeps a fixed delay first, standing in for model latency.
A GET of `/stats` returns how many POSTs were served and the most that were
in flight at once.

    python3 provider_stub.py --replies replies.json --delay-ms 10

The stub listens on a free port of 127.0.0.1, prints `PORT <n>` once it
accepts connections, and exits when its standard input closes, so it
never outlives the process that started it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def target_code(prompt: str) -> str | None:
    parts = prompt.split("```")
    if len(parts) < 3:
        return None
    block = parts[-2]
    return (block.split("\n", 1)[1] if "\n" in block else block).rstrip()


class _Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.inflight = 0
        self.peak_inflight = 0


def make_server(replies: dict[str, str], delay_s: float) -> ThreadingHTTPServer:
    counters = _Counters()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with counters.lock:
                stats = {"requests": counters.requests, "peak_inflight": counters.peak_inflight}
            self._send(200, stats)

        def do_POST(self):
            with counters.lock:
                counters.requests += 1
                counters.inflight += 1
                counters.peak_inflight = max(counters.peak_inflight, counters.inflight)
            try:
                length = int(self.headers.get("Content-Length", 0))
                prompt = json.loads(self.rfile.read(length)).get("prompt", "")
                reply = replies.get(target_code(prompt) or "")
                if delay_s:
                    time.sleep(delay_s)
            finally:
                # Before the reply goes out, so a client's next request
                # cannot overlap this one in the count.
                with counters.lock:
                    counters.inflight -= 1
            if reply is None:
                self._send(400, {"error": "no reply for the prompted code"})
            else:
                self._send(200, {"text": reply})

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


class Stub:
    """Runs the stub as a child process; use as a context manager so the
    child is stopped and reaped however the block exits."""

    def __init__(self, replies: Path, delay_ms: float):
        self._args = [sys.executable, str(Path(__file__).resolve()),
                      "--replies", str(replies), "--delay-ms", str(delay_ms)]
        self._proc: subprocess.Popen | None = None
        self.url = ""

    def __enter__(self) -> "Stub":
        self._proc = subprocess.Popen(
            self._args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"provider stub failed to start: {line!r}")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def stats(self) -> dict:
        # An opener without proxy handlers: the stub is always local.
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replies", required=True, help="JSON object: code -> reply text")
    parser.add_argument("--delay-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    replies = json.loads(Path(args.replies).read_text(encoding="utf-8"))
    server = make_server(replies, args.delay_ms / 1000.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
