"""The daemon and net layers: four localhost `past_cli daemon` processes.

The daemons run with durable state directories, real certificates, real
sockets and real disk. One single-threaded generator drives them through
their ctl ports with at most `nproc` connections open at a time. Arrivals are
Poisson and open-loop.

Phases of one run (`layer_run`):
  set-up     boot the daemons one after another, wait until every one reports
             active=1, insert the prepopulated files;
  fixed      a fixed offered rate: daemon CPU per op, ctl connect time and
             the generator's own lateness;
  idle       an op-free window: daemon CPU spent on keep-alives alone.

Every lookup goes to a different daemon from the one that inserted the file
and must return that daemon's size and CRC. A generator that sends late
(p99 over LATE_LIMIT_MS) makes the run invalid. Daemons are torn down on every
exit path, including failed checks and signals.
"""

import ctypes
import math
import os
import random
import re
import selectors
import shutil
import signal
import socket
import subprocess
import time

DAEMONS = 4
K = 3
PREPOPULATE = 200
FILE_SIZE_MIN = 12 << 10  # inserts are 16 KiB-class: uniform in [12, 20] KiB
FILE_SIZE_MAX = 20 << 10
INSERT_FRAC = 0.5
FIXED_RATE = 800.0  # offered ops/s of the fixed phase
FIXED_SECONDS = 3.0
IDLE_SECONDS = 1.0
LATE_LIMIT_MS = 10.0  # generator p99 lateness above this invalidates the run
OP_TIMEOUT_S = 15.0  # above the daemons' 10 s request timeout
KEEP_ALIVE_S = 1.0  # past_cli daemon's keep-alive period
MAX_CONNS = min(4, os.cpu_count() or 1)

_PR_SET_PDEATHSIG = 1


def _die_with_parent():
    """Daemons get SIGKILL if the benchmark process dies first."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except OSError:
        pass


def _free_port():
    """A port free for both TCP and UDP on 127.0.0.1 (the daemon binds both)."""
    for _ in range(100):
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            tcp.bind(("127.0.0.1", 0))
            port = tcp.getsockname()[1]
            udp.bind(("127.0.0.1", port))
            return port
        except OSError:
            continue
        finally:
            tcp.close()
            udp.close()
    raise RuntimeError("no free port")


def ctl(port, line, timeout=5.0):
    """One blocking ctl round trip; returns the reply line."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        out = b""
        while True:
            data = s.recv(4096)
            if not data:
                break
            out += data
    return out.decode(errors="replace").strip()


def cpu_ns(pid):
    """Nanoseconds the process has spent on a CPU (/proc/<pid>/schedstat)."""
    with open("/proc/%d/schedstat" % pid) as f:
        return int(f.read().split()[0])


class Cluster:
    """DAEMONS daemons under `workdir`; a context manager that always tears down."""

    def __init__(self, past_cli, workdir, spans):
        self.past_cli = past_cli
        self.workdir = workdir
        self.spans = spans
        self.procs = []
        self.ctl_ports = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def start(self):
        os.makedirs(self.workdir, exist_ok=True)
        join = None
        for i in range(DAEMONS):
            t0 = self.spans.now_us()
            join = self._start_one(i, join)
            self.spans.add("bench.boot", i + 1, 0, t0, self.spans.now_us())
        # Every daemon must still report active before anything is timed.
        for port in self.ctl_ports:
            if not self._wait_active(port):
                raise RuntimeError("daemon on ctl port %d is not active" % port)

    def _start_one(self, i, join):
        for _ in range(5):
            port, ctl_port = _free_port(), _free_port()
            args = [self.past_cli, "daemon", "--port", str(port), "--ctl-port", str(ctl_port),
                    "--node-seed", str(i + 1),
                    "--state-dir", os.path.join(self.workdir, "state%d" % i), "--k", str(K)]
            if join is not None:
                args += ["--join", "127.0.0.1:%d" % join]
            log = open(os.path.join(self.workdir, "daemon%d.log" % i), "ab")
            proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent)
            log.close()
            self.procs.append(proc)
            if self._wait_active(ctl_port, proc):
                self.ctl_ports.append(ctl_port)
                return join if join is not None else port
            self._kill(proc)  # lost a port race or never joined: retry
            self.procs.remove(proc)
        raise RuntimeError("daemon %d did not start" % i)

    def _wait_active(self, ctl_port, proc=None, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc is not None and proc.poll() is not None:
                return False
            try:
                if "active=1" in ctl(ctl_port, "status", timeout=1.0):
                    return True
            except OSError:
                pass
            time.sleep(0.005)
        return False

    @staticmethod
    def _kill(proc):
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def cpu_ns(self):
        return sum(cpu_ns(p.pid) for p in self.procs)

    def stop(self):
        for port, proc in zip(self.ctl_ports, self.procs):
            if proc.poll() is None:
                try:
                    ctl(port, "quit", timeout=1.0)
                except OSError:
                    pass
        deadline = time.monotonic() + 2.0
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            self._kill(proc)
        self.procs = []
        self.ctl_ports = []


class SpanLog:
    """Wall-clock spans in the ExpTrace dump shape, kept in memory."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.spans = []

    def now_us(self):
        return (time.monotonic() - self.t0) * 1e6

    def add(self, name, node, parent, start_us, end_us):
        self.spans.append({"id": len(self.spans) + 1, "parent": parent,
                           "trace_id": parent or len(self.spans) + 1, "name": name,
                           "node": node, "start_us": start_us, "end_us": end_us})
        return len(self.spans)


class Op:
    __slots__ = ("sched", "insert", "daemon", "name", "size", "file", "start", "connected",
                 "done", "ok", "late", "sock", "out", "reply", "error")

    def __init__(self, sched, insert):
        self.sched = sched
        self.insert = insert
        self.daemon = 0
        self.name = ""
        self.size = 0
        self.file = None
        self.start = self.connected = self.done = None
        self.ok = False
        self.late = 0.0
        self.out = b""
        self.reply = b""
        self.sock = None
        self.error = None  # why the op failed


class Generator:
    """Single-threaded open-loop ctl client over non-blocking sockets."""

    def __init__(self, cluster, rng, spans, prefix):
        self.cluster = cluster
        self.rng = rng
        self.spans = spans
        self.prefix = prefix  # file names are <prefix>-f<n>
        self.files = []  # acknowledged: (fileid, crc, size, daemon)
        self.next_name = 0

    def schedule(self, rate, seconds, insert_frac):
        """round(rate * seconds) Poisson arrivals in [0, seconds): a Poisson
        process conditioned on its count is uniformly scattered."""
        times = sorted(self.rng.random() * seconds for _ in range(round(rate * seconds)))
        return [Op(t, self.rng.random() < insert_frac) for t in times]

    def run(self, ops):
        """Sends `ops` on their schedule; returns them completed."""
        sel = selectors.DefaultSelector()
        inflight = {}
        t0 = time.monotonic()
        freed_at = 0.0  # when a connection slot last opened while all were busy
        i = 0
        try:
            while i < len(ops) or inflight:
                now = time.monotonic() - t0
                while i < len(ops) and len(inflight) < MAX_CONNS and ops[i].sched <= now:
                    op = ops[i]
                    i += 1
                    op.late = now - max(op.sched, freed_at)
                    self._begin(op, sel, inflight, now)
                    now = time.monotonic() - t0
                if i < len(ops) and len(inflight) < MAX_CONNS:
                    timeout = max(0.0, ops[i].sched - now)
                else:
                    timeout = 0.05
                for key, _ in sel.select(timeout):
                    op = key.data
                    was_full = len(inflight) >= MAX_CONNS
                    if self._step(op, sel, time.monotonic() - t0):
                        del inflight[op.sock]
                        op.sock.close()
                        if was_full:
                            freed_at = op.done
                now = time.monotonic() - t0
                for sock, op in list(inflight.items()):
                    if now - op.start > OP_TIMEOUT_S:
                        sel.unregister(sock)
                        sock.close()
                        del inflight[sock]
                        op.done, op.ok, op.error = now, False, "timeout"
        finally:
            for sock in list(inflight):
                sock.close()
            sel.close()
        return ops

    def _begin(self, op, sel, inflight, now):
        if op.insert or not self.files:
            op.insert = True
            op.daemon = self.rng.randrange(DAEMONS)
            op.size = self.rng.randint(FILE_SIZE_MIN, FILE_SIZE_MAX)
            op.name = "%s-f%d" % (self.prefix, self.next_name)
            self.next_name += 1
            line = "insert %s %d %d" % (op.name, op.size, K)
        else:
            op.file = self.files[self.rng.randrange(len(self.files))]
            op.daemon = (op.file[3] + 1 + self.rng.randrange(DAEMONS - 1)) % DAEMONS
            line = "lookup %s" % op.file[0]
        op.out = (line + "\n").encode()
        op.start = now
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        op.sock = sock
        err = sock.connect_ex(("127.0.0.1", self.cluster.ctl_ports[op.daemon]))
        if err not in (0, 115):  # EINPROGRESS
            op.done, op.error = now, "connect: %s" % os.strerror(err)
            sock.close()
            return
        inflight[sock] = op
        sel.register(sock, selectors.EVENT_WRITE, op)

    def _step(self, op, sel, now):
        """Advances one op on readiness; True once it has finished."""
        sock = op.sock
        if op.connected is None:
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err != 0:
                sel.unregister(sock)
                op.done, op.error = now, "connect: %s" % os.strerror(err)
                return True
            op.connected = now
        if op.out:
            try:
                op.out = op.out[sock.send(op.out):]
            except OSError as e:
                sel.unregister(sock)
                op.done, op.error = now, "send: %s" % e.strerror
                return True
            if not op.out:
                sel.modify(sock, selectors.EVENT_READ, op)
            return False
        try:
            data = sock.recv(4096)
        except BlockingIOError:
            return False
        except OSError:
            data = b""
        if data:
            op.reply += data
            return False
        sel.unregister(sock)
        op.done = now
        self._finish(op)
        return True

    def _finish(self, op):
        reply = op.reply.decode(errors="replace").strip()
        op.error = "reply: " + (reply.split()[:2] and " ".join(reply.split()[:2]) or "none")
        if op.insert:
            m = re.match(r"OK ([0-9a-f]+) crc=([0-9a-f]+)$", reply)
            if m:
                op.ok, op.error = True, None
                self.files.append((m.group(1), m.group(2), op.size, op.daemon))
            return
        m = re.match(r"OK size=(\d+) crc=([0-9a-f]+)", reply)
        if m:
            op.ok = int(m.group(1)) == op.file[2] and m.group(2) == op.file[1]
            op.error = None if op.ok else "content mismatch"

    def record_spans(self, ops, t0_us):
        for op in ops:
            if op.start is None or op.done is None:
                continue
            sid = self.spans.add("ctl.insert" if op.insert else "ctl.lookup", op.daemon + 1, 0,
                                 t0_us + op.start * 1e6, t0_us + op.done * 1e6)
            if op.connected is not None:
                self.spans.add("ctl.connect", op.daemon + 1, sid, t0_us + op.start * 1e6,
                               t0_us + op.connected * 1e6)


def quantile(values, q):
    """Nearest-rank quantile."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


class Run:
    """One run; `failed` counts every failed op and check."""

    def __init__(self, spans):
        self.spans = spans
        self.attempted = 0
        self.failed = 0
        self.failure_reasons = {}

    def _phase(self, gen, ops):
        t0_us = self.spans.now_us()
        gen.run(ops)
        gen.record_spans(ops, t0_us)
        self.attempted += len(ops)
        for op in ops:
            if not op.ok:
                self.fail(op.error)

    def fail(self, reason):
        self.failed += 1
        self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1

    def set_up(self, cluster, gen):
        """Boots the cluster and prepopulates it."""
        cluster.start()
        t0_us = self.spans.now_us()
        self._phase(gen, [Op(0.0, True) for _ in range(PREPOPULATE)])
        self.spans.add("bench.prepopulate", 0, 0, t0_us, self.spans.now_us())

    def fixed(self, cluster, gen):
        """The fixed-rate phase; returns its ops and the daemons' CPU per op."""
        ops = gen.schedule(FIXED_RATE, FIXED_SECONDS, INSERT_FRAC)
        cpu0 = cluster.cpu_ns()
        self._phase(gen, ops)
        n = max(1, sum(1 for op in ops if op.ok))
        return ops, (cluster.cpu_ns() - cpu0) / 1e3 / n

    def idle(self, cluster):
        """Daemon CPU ms per wall second of an op-free window."""
        cpu0 = cluster.cpu_ns()
        time.sleep(IDLE_SECONDS)
        return (cluster.cpu_ns() - cpu0) / 1e6 / IDLE_SECONDS


def layer_run(past_cli, workdir, seed):
    """Measures the daemon and net layers. Returns (attempted, failed,
    per_layer, details, spans)."""
    r = Run(SpanLog())
    shutil.rmtree(workdir, ignore_errors=True)
    with Cluster(past_cli, workdir, r.spans) as cluster:
        gen = Generator(cluster, random.Random(seed), r.spans, "s%d" % seed)
        r.set_up(cluster, gen)
        ops, cpu_us_per_op = r.fixed(cluster, gen)
        idle_cpu = r.idle(cluster)
    late_p99_ms = quantile([op.late * 1e3 for op in ops], 0.99)
    if late_p99_ms > LATE_LIMIT_MS:
        r.fail("generator p99 lateness over %g ms" % LATE_LIMIT_MS)  # latencies are invalid
    connects = [(op.connected - op.start) * 1e6 for op in ops if op.connected is not None]
    per_layer = {
        "daemon.cpu_us_per_op": cpu_us_per_op,
        "daemon.idle_cpu_ms_per_s": idle_cpu,
        "net.ctl_connect_us": quantile(connects, 0.5),
        "gen.late_p99_ms": late_p99_ms,
    }
    details = {
        "daemons": DAEMONS, "k": K, "prepopulate": PREPOPULATE,
        "file_bytes": [FILE_SIZE_MIN, FILE_SIZE_MAX], "insert_frac": INSERT_FRAC,
        "fixed_rate_ops_per_s": FIXED_RATE, "fixed_seconds": FIXED_SECONDS,
        "idle_seconds": IDLE_SECONDS, "max_connections": MAX_CONNS,
        "keep_alive_s": KEEP_ALIVE_S, "late_limit_ms": LATE_LIMIT_MS,
        "failure_reasons": r.failure_reasons,
    }
    return r.attempted, r.failed, per_layer, details, r.spans.spans
