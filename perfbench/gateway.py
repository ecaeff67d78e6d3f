"""The gateway_sse workload: the `serve` binary as a child process, driven
over loopback by one single-threaded client.

The measured connection is a closed loop of streamed completions: it
sends the next request only after the previous stream ended. Latencies
are wall time seen by the client: TTFT from the request write to the first
token frame, TPOT per request from its first to its last token frame over
the tokens after the first (the simulator's own TPOT definition).

With --trace 1 the client records spans per request (connect, write,
first byte, each frame, close), and a second connection joins: a slow SSE
reader with a small receive buffer that reads a little at a time, so the
server's blocking writes to it can stall its single event loop. It is kept
out of the timed run because whether those writes block depends on how
far the kernel has grown the server's send buffer, which differs from run
to run and made the timed tail latencies bimodal. The server's session log
is then replayed through every layer by `perfbench gateway-layers`.
"""

import json
import math
import os
import random
import selectors
import socket
import subprocess
import sys
import time

# Sim seconds per wall second of the served cluster.
TIMESCALE = 20
# Serving pool size.
TES = 2
# Output tokens of a measured request.
MEASURED_TOKENS = 16
# Output tokens of a slow reader's request.
SLOW_TOKENS = 2048
# The slow reader's receive buffer and read pattern.
SLOW_RCVBUF = 4096
SLOW_READ_BYTES = 256
SLOW_READ_EVERY_S = 0.002
# Extra server start-ups per run, so setup_s is a median.
SETUP_REPS = 10
# The SLO the measured requests are held to (wall time).
SLO_TTFT_MS = 5.0
SLO_TPOT_MS = 2.0
# Per-request socket deadline: a stream that stalls this long is truncated.
STALL_S = 10.0
# Where run outputs go, relative to the working directory (the Rust side
# writes its trace files there too).
OUT_DIR = ".bench_out"

WORDS = [
    "cache", "tensor", "prefix", "decode", "prefill", "token", "batch", "queue",
    "kernel", "stream", "model", "layer", "shard", "route", "serve", "block",
]


def now_ns():
    return time.perf_counter_ns()


def percentile(values, q):
    """Nearest-rank percentile, as the Rust side computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = min(max(math.ceil(q * len(v)), 1), len(v))
    return v[rank - 1]


class Spans:
    """Client-side span recorder: (name, start, end, parent, request id)."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.origin = now_ns()
        self.spans = []

    def add(self, name, start, end, req, parent=None):
        if self.enabled:
            self.spans.append({
                "id": len(self.spans), "parent": parent, "name": name,
                "start_ns": start - self.origin, "end_ns": end - self.origin,
                "req": req, "attrs": {},
            })
            return len(self.spans) - 1
        return None

    def self_times(self):
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        table = {}
        for i, s in enumerate(self.spans):
            dur = s["end_ns"] - s["start_ns"]
            t = table.setdefault(s["name"], {"name": s["name"], "count": 0, "total_ns": 0, "self_ns": 0})
            t["count"] += 1
            t["total_ns"] += dur
            t["self_ns"] += max(dur - child[i], 0)
        return sorted(table.values(), key=lambda t: -t["self_ns"])


def request_bytes(rng, max_tokens):
    prompt = " ".join(rng.choice(WORDS) for _ in range(rng.randint(16, 48)))
    body = json.dumps({"prompt": prompt, "max_tokens": max_tokens, "stream": True})
    return (
        "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n{body}"
    ).encode()


class Stream:
    """One streamed completion on its own connection."""

    def __init__(self, port, payload, req, rcvbuf=None):
        self.req = req
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.t_connect = now_ns()
        self.sock.connect(("127.0.0.1", port))
        self.t_connected = now_ns()
        self.sock.sendall(payload)
        self.t_sent = now_ns()
        self.sock.setblocking(False)
        self.buf = b""
        self.head = None
        self.t_first_byte = None
        self.frames = []  # (arrival ns, carries tokens)
        self.done = False
        self.closed = False
        self.last_progress = self.t_sent

    def feed(self, data, t):
        if not data:
            self.closed = True
            return
        self.last_progress = t
        if self.t_first_byte is None:
            self.t_first_byte = t
        self.buf += data
        if self.head is None:
            end = self.buf.find(b"\r\n\r\n")
            if end < 0:
                return
            self.head = self.buf[:end].decode("latin-1")
            self.buf = self.buf[end + 4:]
        while True:
            end = self.buf.find(b"\n\n")
            if end < 0:
                return
            frame, self.buf = self.buf[:end], self.buf[end + 2:]
            if not frame.startswith(b"data: "):
                continue
            payload = frame[6:]
            if payload == b"[DONE]":
                self.done = True
                continue
            try:
                text = json.loads(payload)["choices"][0]["text"]
            except (ValueError, KeyError, IndexError):
                text = ""
            self.frames.append((t, bool(text)))

    def read(self, limit=65536):
        try:
            data = self.sock.recv(limit)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        self.feed(data, now_ns())

    def finished(self):
        return self.done and (self.closed or not self.buf)

    def status(self):
        if not self.head:
            return None
        parts = self.head.split(" ", 2)
        return int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else None

    def ok(self):
        return self.status() == 200 and self.done

    def close(self):
        self.sock.close()

    def ttft_ms(self):
        first = next((t for t, tok in self.frames if tok), None)
        return None if first is None else (first - self.t_sent) / 1e6

    def tpot_ms(self, tokens):
        """Time per output token after the first: from the first to the
        last token frame, over the tokens that followed the first."""
        toks = [t for t, tok in self.frames if tok]
        if len(toks) < 2 or tokens < 2:
            return None
        return (toks[-1] - toks[0]) / 1e6 / (tokens - 1)

    def record(self, spans):
        end = now_ns()
        top = spans.add("client.request", self.t_connect, end, self.req)
        if top is None:
            return
        spans.add("client.connect", self.t_connect, self.t_connected, self.req, top)
        spans.add("client.write", self.t_connected, self.t_sent, self.req, top)
        if self.t_first_byte is not None:
            spans.add("client.first_byte", self.t_sent, self.t_first_byte, self.req, top)
        prev = self.t_first_byte or self.t_sent
        for t, _ in self.frames:
            spans.add("client.frame", prev, t, self.req, top)
            prev = t
        spans.add("client.close", prev, end, self.req, top)


def fnv1a(data):
    """FNV-1a 64-bit digest, as the Rust side prints report digests."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def start_server(serve, args):
    """Starts `serve` on a free port; returns (process, port, start-up s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [serve, "--addr", "127.0.0.1:0", "--timescale", str(TIMESCALE), "--tes", str(TES)] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if "http://" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"serve did not start: {line!r} {proc.stderr.read()!r}")
    port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            break
        except OSError:
            if time.perf_counter() - t0 > 30:
                proc.kill()
                proc.wait()
                raise RuntimeError("serve never accepted a connection")
            time.sleep(0.0005)
    return proc, port, time.perf_counter() - t0


def post(port, path):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            data += chunk
    return data


def vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stop_server(proc, port):
    post(port, "/admin/shutdown")
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return proc.returncode, out, err


def drive(port, seconds, rng, spans, slow_reader):
    """Runs the client loop for `seconds`; returns finished streams and the
    request bytes sent, in order."""
    sel = selectors.DefaultSelector()
    finished, sent = [], []
    next_req = 0

    def open_stream(tokens, rcvbuf=None):
        nonlocal next_req
        payload = request_bytes(rng, tokens)
        sent.append(payload)
        s = Stream(port, payload, next_req, rcvbuf)
        next_req += 1
        return s

    def close(s, measured):
        s.close()
        s.record(spans)
        finished.append((s, measured))

    measured = open_stream(MEASURED_TOKENS)
    sel.register(measured.sock, selectors.EVENT_READ)
    slow = open_stream(SLOW_TOKENS, SLOW_RCVBUF) if slow_reader else None
    next_slow_read = time.perf_counter()
    t_end = time.perf_counter() + seconds
    while measured is not None or slow is not None:
        now = time.perf_counter()
        winding_down = now >= t_end
        timeout = max(min(next_slow_read - now, 0.05), 0) if slow else 0.05
        if sel.select(timeout):
            measured.read()
        if measured is not None:
            if measured.finished() or measured.closed:
                sel.unregister(measured.sock)
                close(measured, True)
                measured = None
                if not winding_down:
                    measured = open_stream(MEASURED_TOKENS)
                    sel.register(measured.sock, selectors.EVENT_READ)
            elif now_ns() - measured.last_progress > STALL_S * 1e9:
                sel.unregister(measured.sock)
                close(measured, True)
                measured = None
        if slow is not None and time.perf_counter() >= next_slow_read:
            # Past the window the slow reader drains at full speed.
            slow.read(SLOW_READ_BYTES if not winding_down else 65536)
            next_slow_read = time.perf_counter() + (SLOW_READ_EVERY_S if not winding_down else 0)
            if slow.finished() or slow.closed or now_ns() - slow.last_progress > STALL_S * 1e9:
                close(slow, False)
                slow = open_stream(SLOW_TOKENS, SLOW_RCVBUF) if not winding_down else None
    sel.close()
    return finished, b"".join(sent)


def run(bin_dir, seed, seconds, traced, tiny):
    """Runs the workload; prints the metric table and the result line.
    Returns the exit code."""
    serve = os.path.join(bin_dir, "serve")
    perfbench = os.path.join(bin_dir, "perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"gateway_sse-seed{seed}")
    nproc = os.cpu_count() or 1
    # The slow reader is a second connection; load generation stays within
    # nproc connections.
    slow_reader = traced and nproc >= 2
    print("context " + json.dumps({
        "workload": "gateway_sse", "seed": seed, "nproc": nproc, "connections": 2 if slow_reader else 1,
        "client_threads": 1, "timescale": TIMESCALE, "tes": TES, "profile": "release",
        "git_rev": os.environ.get("PERFBENCH_GIT_REV", "unknown"),
    }))
    setups = []
    for _ in range(SETUP_REPS - 1):
        proc, port, s = start_server(serve, [])
        setups.append(s)
        stop_server(proc, port)
    log, report = base + ".session.json", base + ".report.json"
    window = 1.0 if tiny else seconds
    proc, port, s = start_server(serve, [
        "--max-wall-ms", str(int((window + 120) * 1000)),
        "--session-log", log, "--report", report, "--replay-check",
    ])
    setups.append(s)
    t_ready = time.perf_counter()
    spans = Spans(traced)
    try:
        finished, sent = drive(port, window, random.Random(seed), spans, slow_reader)
    finally:
        rss = vm_hwm_mb(proc.pid)
        code, out, err = stop_server(proc, port)
    server_wall = time.perf_counter() - t_ready
    problems = []
    if code != 0 or "replay check passed" not in out:
        problems.append(f"serve --replay-check failed (exit {code}): {err.strip()[-300:]}")
    failed = 0
    for s, _ in finished:
        if not s.ok():
            failed += 1
            why = "missing data: [DONE]" if s.status() == 200 else f"status {s.status()}"
            problems.append(f"request {s.req}: {why}")
    measured = [s for s, m in finished if m and s.ok()]
    ttft = [s.ttft_ms() for s in measured if s.ttft_ms() is not None]
    slow_streams = sum(1 for _, m in finished if not m)
    tpot = [s.tpot_ms(MEASURED_TOKENS) for s in measured]
    tpot = [t for t in tpot if t is not None]
    meets = sum(
        1 for s in measured
        if s.ttft_ms() is not None and s.ttft_ms() <= SLO_TTFT_MS
        and (s.tpot_ms(MEASURED_TOKENS) or 0.0) <= SLO_TPOT_MS
    )
    n_measured = sum(1 for _, m in finished if m)
    attempted = len(finished)
    completed = sum(1 for s, _ in finished if s.ok())
    if os.path.exists(report):
        with open(report, "rb") as f:
            print(f"digest gateway_sse seed={seed} {fnv1a(f.read()):016x}")
    else:
        problems.append("serve wrote no report")

    if not traced:
        metrics = [
            ("setup_s", percentile(setups, 0.5), "s", len(setups)),
            ("sim_reqs_per_s", completed / window, "1/s", completed),
            ("peak_rss_mb", rss, "MB", 1),
            ("ttft_p50_ms", percentile(ttft, 0.5), "ms", len(ttft)),
            ("ttft_tail_ms", percentile(ttft, 0.9), "ms", len(ttft)),
            ("tpot_p50_ms", percentile(tpot, 0.5), "ms", len(tpot)),
            ("tpot_p99_ms", percentile(tpot, 0.99), "ms", len(tpot)),
            ("slo_attain", meets / max(n_measured, 1), "share", n_measured),
        ]
    else:
        with open(base + ".requests.bin", "wb") as f:
            f.write(sent)
        layers = subprocess.run(
            [perfbench, "gateway-layers", "--log", log, "--requests", base + ".requests.bin",
             "--report", report, "--server-wall", repr(server_wall), "--tes", str(TES),
             "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        # The layer run prints its own metric table; only its result line
        # is parsed here.
        lines = layers.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "metrics": {}}
        if layers.returncode != 0 or not result.get("correct"):
            problems.append(f"gateway-layers failed (exit {layers.returncode})")
        metrics = [(k, v["value"], v["unit"], None) for k, v in result["metrics"].items()]
        with open(base + ".trace.json", "w") as f:
            json.dump({
                "format": "perfbench-trace-1", "workload": "gateway_sse", "seed": seed,
                "side": "client", "layers_trace": os.path.basename(base) + ".layers.json",
                "measured_with_slow_reader": {
                    "requests": len(measured), "slow_streams": slow_streams,
                    "ttft_p50_ms": percentile(ttft, 0.5), "ttft_p90_ms": percentile(ttft, 0.9),
                    "tpot_p50_ms": percentile(tpot, 0.5), "tpot_p99_ms": percentile(tpot, 0.99),
                },
                "self_time": spans.self_times(), "spans": spans.spans,
            }, f)
        print(
            f"slow reader: {slow_streams} slow streams beside {len(measured)} measured requests; "
            f"measured TTFT p90 {percentile(ttft, 0.9):.3f} ms, TPOT p99 {percentile(tpot, 0.99):.3f} ms"
        )
        print(f"trace written to {base}.trace.json")

    for name, value, unit, n in metrics:
        if n is not None:
            print(f"metric {name:<28} {value:>22} {unit:<8} n={n}")
    # Failures also travel in the result line as failed/attempted; the
    # share is printed for readers but kept out of the metrics because it
    # is 0 on a healthy run.
    print(f"metric {'failed_frac':<28} {failed / max(attempted, 1):>22} {'share':<8} n={attempted}")
    for p in problems:
        print(f"check FAILED: {p}")
    print(json.dumps({
        "correct": not problems, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit("run perfbench/run.py --workload gateway_sse instead")
