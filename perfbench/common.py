"""Shared pieces of the benchmark: timing, tracing, oracles, probes.

Everything here runs outside the program under test: spans are taken
around calls into the public functions of each layer, never inside them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Operation types every workload accounts for, in report order.
OP_TYPES = ("lookup", "request", "insert", "update", "delete", "shutdown")

#: Keys per served request (serve-tcp and every serve probe).
REQUEST_KEYS = 16
#: Requests kept in flight in the loaded serve phase.
IN_FLIGHT = 32


def now() -> float:
    return time.perf_counter()


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def vmhwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def dir_bytes(path: Path) -> Dict[str, int]:
    """Bytes on disk of a saved store, by ``os.stat``."""
    sizes = {p.name: os.stat(p).st_size for p in Path(path).iterdir()
             if p.is_file()}
    return {
        "total": sum(sizes.values()),
        "payload": sum(v for k, v in sizes.items() if k.startswith("shard-")),
        "manifest": sizes.get("manifest.json", 0),
    }


class Ops:
    """Attempted and failed counts per operation type."""

    def __init__(self):
        self.counts = {op: [0, 0] for op in OP_TYPES}

    def run(self, op: str, fn, *args):
        """Call ``fn``; a raised exception counts as a failed ``op``."""
        self.counts[op][0] += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted, reported, and the run goes on
            self.counts[op][1] += 1
            print(f"perfbench: {op} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None

    def add(self, op: str, attempted: int, failed: int = 0) -> None:
        self.counts[op][0] += attempted
        self.counts[op][1] += failed

    def merge(self, other: Dict[str, List[int]]) -> None:
        for op, (a, f) in other.items():
            self.add(op, a, f)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Disabled tracers hand out no spans and cost one branch per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, request=None) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, request])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        if span < 0:
            return
        self.spans[span][2] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name: str, start_s: float, end_s: float,
            request=None) -> None:
        """Record a span timed elsewhere (perf_counter seconds)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, int(start_s * 1e9), int(end_s * 1e9),
                               parent, request])

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "request": request}) + "\n")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def input_record(table) -> Dict[str, object]:
    digest = hashlib.sha256()
    for name in table.column_names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(table.column(name)).tobytes())
    return {"record": "input", "table": table.name, "rows": table.n_rows,
            "raw_bytes": table.uncompressed_bytes(),
            "sha256": digest.hexdigest()}


def host_record() -> Dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {"record": "host", "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads or "default",
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


# ----------------------------------------------------------------------
# Correctness: oracles computed apart from the program
# ----------------------------------------------------------------------
def check_answers(found, values: Dict[str, object], exp_found: np.ndarray,
                  exp_values: Dict[str, np.ndarray]) -> int:
    """Number of wrong keys in one answer.

    A key is wrong when its found flag differs from the oracle's, or when
    it is found and any of its values differs.  Values of misses are not
    compared: the program may fill them with anything.
    """
    found = np.asarray(found, dtype=bool)
    if found.shape != exp_found.shape:
        return int(exp_found.size)
    wrong = found != exp_found
    for name, expected in exp_values.items():
        got = np.asarray(values[name])
        if got.shape != expected.shape:
            return int(exp_found.size)
        wrong |= exp_found & (got != expected)
    return int(wrong.sum())


class Vocab:
    """Value columns as small codes into a sorted vocabulary."""

    def __init__(self, vocab: Dict[str, np.ndarray]):
        self.vocab = vocab

    @classmethod
    def of(cls, columns: Dict[str, np.ndarray]):
        return cls({n: np.unique(c) for n, c in columns.items()})

    def encode(self, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {n: np.searchsorted(self.vocab[n], c).astype(np.int32)
                for n, c in columns.items()}

    def decode(self, codes: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {n: self.vocab[n][c] for n, c in codes.items()}


class TableOracle:
    """Expected answers for a static table with a 1- or 2-column key.

    Keys are flattened as ``k0 * 16 + k1``; callers keep ``k1`` in
    ``[0, 16)``.  Answers come from a sorted copy of the generated keys
    and the value codes of each row.
    """

    def __init__(self, key_names, flat: np.ndarray, codes, vocab: Vocab):
        self.key_names = tuple(key_names)
        order = np.argsort(flat, kind="stable")
        self.flat = flat[order]
        self.codes = {n: c[order] for n, c in codes.items()}
        self.vocab = vocab

    @staticmethod
    def flatten(key_names, key_cols) -> np.ndarray:
        flat = np.asarray(key_cols[key_names[0]], dtype=np.int64)
        if len(key_names) == 2:
            flat = flat * 16 + np.asarray(key_cols[key_names[1]],
                                          dtype=np.int64)
        return flat

    @classmethod
    def of(cls, table):
        vocab = Vocab.of(table.value_columns_dict())
        flat = cls.flatten(table.key, table.key_columns_dict())
        return cls(table.key, flat, vocab.encode(table.value_columns_dict()),
                   vocab)

    def expect(self, key_cols):
        q = self.flatten(self.key_names, key_cols)
        pos = np.minimum(np.searchsorted(self.flat, q), self.flat.size - 1)
        found = self.flat[pos] == q
        codes = {n: np.where(found, c[pos], 0) for n, c in self.codes.items()}
        return found, self.vocab.decode(codes)

    def save(self, path: Path) -> None:
        arrays = {"flat": self.flat, "key_names": np.array(self.key_names)}
        for n in self.codes:
            arrays[f"code_{n}"] = self.codes[n]
            arrays[f"vocab_{n}"] = self.vocab.vocab[n]
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: Path):
        with np.load(path) as z:
            names = [k[5:] for k in z.files if k.startswith("code_")]
            oracle = cls.__new__(cls)
            oracle.key_names = tuple(str(k) for k in z["key_names"])
            oracle.flat = z["flat"]
            oracle.codes = {n: z[f"code_{n}"] for n in names}
            oracle.vocab = Vocab({n: z[f"vocab_{n}"] for n in names})
        return oracle


class LiveRecord:
    """The benchmark's own record of a single-key store's live rows.

    Keys live in ``[0, size)``; every write is applied here as well as to
    the store, and every answer is checked against this record.
    """

    def __init__(self, size: int, column: str, vocab: np.ndarray):
        self.column = column
        self.vocab = vocab
        self.live = np.zeros(size, dtype=bool)
        self.code = np.zeros(size, dtype=np.int32)

    def put(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.live[keys] = True
        self.code[keys] = np.searchsorted(self.vocab, values)

    def drop(self, keys: np.ndarray) -> None:
        self.live[keys] = False

    def expect(self, key_cols):
        keys = np.asarray(key_cols["key"], dtype=np.int64)
        inside = (keys >= 0) & (keys < self.live.size)
        safe = np.where(inside, keys, 0)
        found = inside & self.live[safe]
        return found, {self.column: self.vocab[self.code[safe]]}

    def live_keys(self) -> np.ndarray:
        return np.flatnonzero(self.live).astype(np.int64)


# ----------------------------------------------------------------------
# JSON-lines client (one connection, pipelined requests)
# ----------------------------------------------------------------------
class LineConn:
    """One TCP connection speaking the server's JSON-lines protocol."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, message: Dict) -> None:
        self.sock.sendall((json.dumps(message) + "\n").encode())

    def recv(self) -> Dict:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, message: Dict) -> Dict:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def request_message(rid: int, key_cols) -> Dict:
    return {"id": rid, "keys": {n: np.asarray(v).tolist()
                                for n, v in key_cols.items()}}


def request_bodies(requests) -> List[str]:
    """The JSON of each request's keys, encoded once before timing."""
    return [json.dumps({n: np.asarray(v).tolist() for n, v in req.items()})
            for req in requests]


def reply_answer(reply: Dict):
    """``(found, values)`` of a lookup reply; raises on an error reply."""
    if "error" in reply:
        raise RuntimeError(reply["error"])
    return np.asarray(reply["found"], dtype=bool), reply["values"]


def drive(conn: LineConn, bodies: List[str], in_flight: int, check,
          tracer: Tracer, span: str):
    """Closed loop over pre-encoded requests with ``in_flight`` outstanding.

    Returns ``(latencies_ms, elapsed_s, failed)``.  Replies are checked
    with ``check(request_index, reply)`` after the loop, so the checking
    does not compete with the server for the CPU while it is timed; an
    error reply counts as a failed request.
    """
    sent = {}
    replies = []
    latencies = []
    nxt = 0

    def send():
        nonlocal nxt
        sent[nxt] = now()
        conn.sock.sendall(f'{{"id": {nxt}, "keys": {bodies[nxt]}}}\n'
                          .encode())
        nxt += 1

    t0 = now()
    while nxt < min(in_flight, len(bodies)):
        send()
    while sent:
        reply = conn.recv()
        t = now()
        rid = reply["id"]
        start = sent.pop(rid)
        latencies.append((t - start) * 1000.0)
        tracer.add(span, start, t, request=rid)
        replies.append(reply)
        if nxt < len(bodies):
            send()
    elapsed = now() - t0
    failed = 0
    for reply in replies:
        if "error" in reply:
            failed += 1
        else:
            check(reply["id"], reply)
    return latencies, elapsed, failed
