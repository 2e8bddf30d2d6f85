"""Start the query server (``python -m repro serve`` with its shipped
defaults) for the served-mix workload.

    python3 perfbench/server_main.py DB [--spans PATH]

Serves DB on an ephemeral loopback port, printed by the server on its
first line of output, until SIGTERM or SIGINT.  With ``--spans`` the
benchmark's layer wrappers are installed in this process first, and the
recorded spans are written to PATH on shutdown.
"""

from __future__ import annotations

import argparse
import itertools
import os
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import load_program  # noqa: E402


class TimedLock:
    """A lock that records a span for the time each acquire waited."""

    def __init__(self, recorder, lock) -> None:
        self._recorder = recorder
        self._lock = lock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        span = self._recorder.begin("server.write_lock_wait")
        try:
            return self._lock.acquire(blocking, timeout)
        finally:
            self._recorder.end(span)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def install_server_layers(recorder) -> None:
    """Wrap the server's wire, admission, session, cache and write calls."""
    from repro.km.session import Testbed
    from repro.server import admission, pool, service

    from tracing import install_engine_layers, query_attrs

    install_engine_layers(recorder)
    local = threading.local()
    requests = itertools.count(1)
    decode = service.decode_line

    def traced_decode(line):
        # A request starts when its line is decoded; it ends after _send.
        recorder.set_op(next(requests))
        local.request = recorder.begin("server.request")
        span = recorder.begin("server.decode")
        try:
            return decode(line)
        finally:
            recorder.end(span)

    service.decode_line = traced_decode
    send = service._Handler._send

    def traced_send(handler, reply):
        try:
            return send(handler, reply)
        finally:
            request = getattr(local, "request", None)
            if request is not None:
                request.attrs["op"] = "write" if "count" in reply and "rows" not in reply else "read"
                recorder.end(request)
                local.request = None

    service._Handler._send = traced_send
    recorder.wrap(service, "encode_message", "server.encode")
    recorder.wrap(service.DkbServer, "dispatch", "server.dispatch")
    recorder.wrap(pool.ReaderSession, "query", "server.read_service",
                  lambda result: {"cached": result.cached})
    recorder.wrap(pool.SessionPool, "load_facts", "server.write_service")
    recorder.wrap(admission.AdmissionController, "acquire", "server.session_wait")
    recorder.wrap(Testbed, "query", "km.query", query_attrs)
    recorder.wrap(threading.Thread, "start", "server.thread_start")
    init = pool.SessionPool.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._writer_lock = TimedLock(recorder, self._writer_lock)

    pool.SessionPool.__init__ = traced_init


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    # The server shuts down cleanly on KeyboardInterrupt.  Map SIGTERM to
    # it, and restore SIGINT, which a parent shell may have set to ignore.
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("db")
    parser.add_argument("--spans", default=None)
    arguments = parser.parse_args()
    load_program()
    from repro.server.cli import serve_main

    recorder = None
    if arguments.spans:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        install_server_layers(recorder)
    status = serve_main([arguments.db, "--port", "0"])
    if recorder is not None:
        recorder.uninstall()
        recorder.write(arguments.spans)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
