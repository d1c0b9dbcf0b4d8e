"""A slim-serve-v1 session over the daemon's Unix socket, timed from outside.

One client sends the protocol stream and waits for each LINK, TOPK, SAVE
and SHUTDOWN reply before its next request; runs of INGEST lines keep up to
INGEST_WINDOW lines in flight. A second connection SUBSCRIBEs and is
drained on its own thread, so the daemon's blocking event writes never
stall on this client.
"""
import os
import re
import socket
import subprocess
import threading
import time

HELLO = b"HELLO slim-serve-v1 "
LINK_REPLY = re.compile(rb"^OK epoch=(\d+) links=(\d+) .*scored=(\d+) "
                        rb"reused=(\d+) ")
TIMEOUT_S = 120
INGEST_WINDOW = 16
# Epoch work runs on one thread: on a shared box, parallel work waits for
# its slowest thread, and the t1/t4 slim_link runs already cover scaling.
SERVE_THREADS = 1


class ServeError(Exception):
    """A failed request: an ERR reply, a dead daemon or a broken socket."""


class SessionStats:
    def __init__(self):
        self.epoch_ms = []          # first INGEST of an epoch -> LINK reply
        self.topk_us = []           # TOPK round trips
        self.after_link_us = []     # the first TOPK after each LINK
        self.ingest_krec_s = []     # per INGEST line, see run_session
        self.requests = 0
        self.candidate_pairs = 0    # scored + reused of the last LINK
        self.event_lines = 0


class _Drain(threading.Thread):
    """Reads a SUBSCRIBE connection to EOF, counting event lines."""

    def __init__(self, conn):
        super().__init__(daemon=True)
        self.conn = conn
        self.lines = 0
        self.sealed = 0
        self.error = None

    def run(self):
        tail = b""
        try:
            while True:
                chunk = self.conn.recv(1 << 16)
                if not chunk:
                    break
                data = tail + chunk
                cut = data.rfind(b"\n") + 1
                self.lines += data.count(b"\n", 0, cut)
                self.sealed += data.count(b" sealed links=", 0, cut)
                tail = data[cut:]
        except OSError as e:
            self.error = e


def _connect(path):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(TIMEOUT_S)
    conn.connect(path)
    reader = conn.makefile("rb")
    hello = reader.readline()
    if not hello.startswith(HELLO):
        raise ServeError(f"bad handshake: {hello[:80]!r}")
    return conn, reader


def start_daemon(slim_serve, sock_path, log):
    """Starts slim_serve and completes one handshake; returns the process."""
    if os.path.exists(sock_path):
        os.remove(sock_path)
    proc = subprocess.Popen([slim_serve, "--socket", sock_path,
                             "--threads", str(SERVE_THREADS)],
                            stdout=log, stderr=log)
    deadline = time.monotonic() + 30
    while True:
        if proc.poll() is not None:
            raise ServeError(f"slim_serve exited with {proc.returncode}")
        if os.path.exists(sock_path):
            try:
                conn, _ = _connect(sock_path)
                conn.close()
                return proc
            except OSError:
                pass
        if time.monotonic() > deadline:
            stop_daemon(proc)
            raise ServeError("slim_serve never accepted a connection")
        time.sleep(0.005)


def stop_daemon(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_session(proc, sock_path, stream_path, save_path, stats):
    """Replays the stream against a started daemon, SAVEs and shuts it down.

    Raises ServeError on the first ERR reply or transport failure.
    """
    with open(stream_path, "rb") as f:
        lines = f.read().splitlines()
    sub, sub_reader = _connect(sock_path)
    conn, reader = _connect(sock_path)
    drain = None
    links = 0
    try:
        sub.sendall(b"SUBSCRIBE\n")
        if not sub_reader.readline().startswith(b"OK subscribed"):
            raise ServeError("SUBSCRIBE refused")
        sub.settimeout(None)
        drain = _Drain(sub)
        drain.start()

        def reply_to(line):
            reply = reader.readline()
            if not reply.startswith(b"OK"):
                raise ServeError(f"{line[:24]!r}... -> {reply[:120]!r}")
            return reply

        def request(line):
            stats.requests += 1
            conn.sendall(line + b"\n")
            return reply_to(line)

        def ingest(batch):
            # Up to INGEST_WINDOW lines in flight: the daemon parses line
            # after line instead of waiting for this client to wake up. A
            # line's service time runs from its send, or from the previous
            # reply if that came later, to its own reply.
            sent = []
            last = None

            def receive(k):
                nonlocal last
                reply_to(batch[k])
                now = time.perf_counter()
                begin = sent[k] if last is None else max(sent[k], last)
                stats.ingest_krec_s.append(
                    batch[k].count(b" ") // 4 / (now - begin) / 1e3)
                last = now

            for k, line in enumerate(batch):
                stats.requests += 1
                sent.append(time.perf_counter())
                conn.sendall(line + b"\n")
                if k >= INGEST_WINDOW:
                    receive(k - INGEST_WINDOW)
            for k in range(max(0, len(batch) - INGEST_WINDOW), len(batch)):
                receive(k)

        epoch_t0 = None
        after_link = False
        i = 0
        while i < len(lines):
            t0 = time.perf_counter()
            verb = lines[i].split(b" ", 1)[0]
            if verb == b"INGEST":
                end = i
                while end < len(lines) and lines[end].startswith(b"INGEST "):
                    end += 1
                ingest(lines[i:end])
                if epoch_t0 is None:
                    epoch_t0 = t0
                i = end
                continue
            reply = request(lines[i])
            t1 = time.perf_counter()
            if verb == b"LINK":
                stats.epoch_ms.append(
                    (t1 - (t0 if epoch_t0 is None else epoch_t0)) * 1e3)
                epoch_t0 = None
                m = LINK_REPLY.match(reply)
                if m is None:
                    raise ServeError(f"unparsed LINK reply {reply[:120]!r}")
                links += 1
                stats.candidate_pairs = int(m.group(3)) + int(m.group(4))
                after_link = True
            elif verb == b"TOPK":
                stats.topk_us.append((t1 - t0) * 1e6)
                if after_link:
                    stats.after_link_us.append((t1 - t0) * 1e6)
                    after_link = False
            i += 1
        request(b"SAVE " + save_path.encode())
        request(b"SHUTDOWN")
        proc.wait(timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise ServeError(f"slim_serve exited with {proc.returncode}")
    finally:
        conn.close()
        if drain is not None:
            drain.join(timeout=TIMEOUT_S)
        try:
            sub.shutdown(socket.SHUT_RDWR)  # unblocks a stuck drain
        except OSError:
            pass
        sub.close()
    if drain.error is not None or drain.sealed != links:
        raise ServeError(f"subscriber saw {drain.sealed} sealed events for "
                         f"{links} LINKs ({drain.error})")
    stats.event_lines += drain.lines
