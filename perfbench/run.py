#!/usr/bin/env python3
"""Live end-to-end benchmark of the replicated kv store.

    python3 perfbench/run.py --workload write-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of the repository. Each run builds
perfbench/msmr_perf.exe with dune, then starts two processes:

* a cluster process: three Kv_service replicas over Transport.Hub (no
  injected delay, so latency is processor time plus queueing), each
  behind a Client_server on a local TCP port;
* a load-generator process with at most nproc (and at most 2) threads
  and as many TCP connections; many logical clients share each.

The seed fixes every key, value and arrival time. The last line of
standard output is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the
per-layer metrics (wrappers and sampler switched on) with --trace 1.
Earlier lines carry the environment fingerprint and diagnostics. With
--trace 1 the spans of the sampled requests are written to
perfbench/_out/<workload>-trace/spans.json (Chrome trace format).

The metric list and the end-to-end metric each per-layer metric should
move are in LAYERS below and in BENCHMARK.json. --smoke runs every
workload briefly, traced and untraced, checks that every metric named
in BENCHMARK.json is printed with its unit and that the span file
reads back, and prints the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "msmr_perf.exe")

KEYS = 10_000
VALUE_SIZE = 128
WARMUP_S = 2.0
SETUPS = 21             # cluster start-ups per run; setup_s is their median
RESEND_S = 0.5          # client retransmission timeout (same request id)
DRAIN_S = 5.0
SLICE_S = 0.25
STEAL_MAX = 0.02
# Generator validity bounds: past them the run measured the generator.
MAX_GEN_CPU_FRAC = 0.9
MAX_LATENESS_P99_MS = 50.0

# Config.default ~n:3 everywhere; only the settings below differ.
WORKLOADS = {
    "write-closed": dict(mode="closed", clients=64, read_frac=0.0,
                         rss_ops=40_000),
    "write-open": dict(mode="open", rate=4000.0, rss_ops=20_000),
    "read-mostly": dict(mode="closed", clients=64, read_frac=0.95, lease=True,
                        rss_ops=40_000),
    "failover": dict(mode="open", rate=1000.0, durable=True,
                     kill_at=0.3, restart_at=0.5, rss_ops=4_000),
}

# per-layer metric -> (unit, better, the end-to-end metric it should move
# and on which workload)
LAYERS = {
    "client_io.replies_per_flush": ("count", "higher", "throughput_rps on read-mostly and write-closed"),
    "client_io.busy_frac": ("ratio", "lower", "throughput_rps on read-mostly and write-closed"),
    "client_server.busy_frac": ("ratio", "lower", "throughput_rps on read-mostly and write-closed"),
    "batcher.ops_per_instance": ("count", "higher", "throughput_rps on write-closed"),
    "batcher.request_queue_wait_ms": ("ms", "lower", "latency_p50_ms on write-open"),
    "batcher.busy_frac": ("ratio", "lower", "throughput_rps on write-closed"),
    "paxos.instances_per_s": ("1/s", "higher", "throughput_rps on write-closed"),
    "paxos.window_in_use_mean": ("count", "lower", "throughput_rps on write-closed"),
    "paxos.proposal_queue_wait_ms": ("ms", "lower", "throughput_rps on write-closed"),
    "paxos.dispatcher_queue_wait_ms": ("ms", "lower", "throughput_rps on write-closed"),
    "paxos.busy_frac": ("ratio", "lower", "throughput_rps on write-closed"),
    "paxos.election_s": ("s", "lower", "unavailable_s on failover"),
    "paxos.view_changes": ("count", "lower", "unavailable_s on failover"),
    "transport.frames_per_op": ("count", "lower", "cpu_us_per_op on write-closed"),
    "transport.bytes_per_op": ("B", "lower", "cpu_us_per_op on write-closed"),
    "transport.accept_frames_per_op": ("count", "lower", "cpu_us_per_op on write-closed"),
    "transport.accepted_frames_per_op": ("count", "lower", "cpu_us_per_op on write-closed"),
    "transport.decide_frames_per_op": ("count", "lower", "cpu_us_per_op on write-closed"),
    "transport.other_frames_per_op": ("count", "lower", "cpu_us_per_op on write-closed"),
    "transport.send_us_per_frame": ("us", "lower", "throughput_rps on write-closed"),
    "replica_io.send_busy_frac": ("ratio", "lower", "cpu_us_per_op on write-closed"),
    "replica_io.recv_busy_frac": ("ratio", "lower", "cpu_us_per_op on write-closed"),
    "service.write_execute_us": ("us", "lower", "cpu_us_per_op on read-mostly"),
    "service.read_execute_us": ("us", "lower", "cpu_us_per_op on read-mostly"),
    "replica.decision_queue_wait_ms": ("ms", "lower", "cpu_us_per_op on read-mostly"),
    "replica.busy_frac": ("ratio", "lower", "cpu_us_per_op on read-mostly"),
    "lease.read_reject_ratio": ("ratio", "lower", "latency_p99_ms on read-mostly"),
    "wal.fsyncs_per_op": ("count", "lower", "latency_p50_ms on failover"),
    "wal.group_size_mean": ("count", "higher", "latency_p50_ms on failover"),
    "wal.bytes_per_op": ("B", "lower", "recovery_s on failover"),
    "stable_storage.busy_frac": ("ratio", "lower", "latency_p50_ms on failover"),
    "recovery.max_lag_instances": ("count", "lower", "recovery_s on failover"),
    "recovery.snapshot_installs": ("count", "lower", "recovery_s on failover"),
    "unavailable_s": ("s", "lower", "end to end on failover"),
    "recovery_s": ("s", "lower", "end to end on failover"),
    "phase.ingress_to_accept_ms": ("ms", "lower", "latency_p50_ms on write-open"),
    "phase.accept_to_execute_ms": ("ms", "lower", "throughput_rps on write-closed"),
    "phase.execute_to_reply_ms": ("ms", "lower", "throughput_rps on read-mostly"),
    "phase.coverage": ("ratio", "higher", "none: share of mean write latency the phases cover"),
    "gc.minor_words_per_op": ("count", "lower", "cpu_us_per_op on every workload"),
    "gc.major_collections_per_kop": ("count", "lower", "cpu_us_per_op on every workload"),
    "process.cpu_cores": ("count", "lower", "cpu_us_per_op on every workload"),
    "thread_state.busy_over_cpu": ("ratio", "lower", "none: diagnostic of spin misattribution"),
    "gen.cpu_frac": ("ratio", "lower", "none: run validity"),
    "gen.lateness_p99_ms": ("ms", "lower", "none: run validity"),
    "failed_ratio": ("ratio", "lower", "end to end; 0 on a healthy run"),
    "traced.throughput_rps": ("1/s", "higher", "none: tracing overhead against throughput_rps"),
    "traced.latency_p50_ms": ("ms", "lower", "none: tracing overhead against latency_p50_ms"),
    "latency_p99_ms": ("ms", "lower", "end to end, ungated: too noisy on a shared host"),
    "latency_p999_ms": ("ms", "lower", "end to end, ungated: too noisy on a shared host"),
}

END_TO_END = {
    "throughput_rps": "1/s", "latency_p50_ms": "ms", "cpu_us_per_op": "us", "peak_rss_mb": "MB", "setup_s": "s",
}


class RunError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/msmr_perf.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=850)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise RunError("build failed")


# ---- environment fingerprint ------------------------------------------

def steal_jiffies():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class HostSampler(threading.Thread):
    """Every 50 ms while a run lasts: the host's steal jiffies and the CPU
    ticks and peak memory of the cluster process (once [pid] is set)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.pid = None
        self.samples = []
        self.done = threading.Event()

    def cluster_ticks(self):
        try:
            with open(f"/proc/{self.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            return int(fields[11]) + int(fields[12])   # utime + stime
        except (OSError, IndexError, ValueError, TypeError):
            return None

    def cluster_hwm_kb(self):
        try:
            with open(f"/proc/{self.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except (OSError, ValueError, TypeError):
            pass
        return None

    def run(self):
        while not self.done.is_set():
            self.samples.append((time.monotonic_ns(), steal_jiffies(),
                                 self.cluster_ticks(), self.cluster_hwm_kb()))
            self.done.wait(0.05)

    def stop(self):
        self.done.set()
        self.join()

    def per_slice(self, t0, t_end, n):
        """(steal jiffies, cluster CPU seconds) in each of n equal slices
        of [t0, t_end)."""
        hz = os.sysconf("SC_CLK_TCK")
        out = []
        for i in range(n):
            a = t0 + (t_end - t0) * i // n
            b = t0 + (t_end - t0) * (i + 1) // n
            before = [x for x in self.samples if x[0] <= a and x[2] is not None]
            after = [x for x in self.samples if x[0] >= b and x[2] is not None]
            if not before or not after:
                raise RunError("host sampler missed the window")
            x0, x1 = before[-1], after[0]
            out.append((x1[1] - x0[1], (x1[2] - x0[2]) / hz))
        return out

    def hwm_at(self, t):
        """The cluster's VmHWM at time t, interpolated between samples."""
        pts = [(x[0], x[3]) for x in self.samples if x[3] is not None]
        if not pts:
            raise RunError("host sampler read no memory figure")
        for (ta, ha), (tb, hb) in zip(pts, pts[1:]):
            if ta <= t <= tb:
                return ha + (hb - ha) * (t - ta) / max(tb - ta, 1)
        return pts[-1][1] if t > pts[-1][0] else pts[0][1]


def cpu_probe_s():
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


def fingerprint():
    commit = "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "lib"))):
        for fn in sorted(files):
            if fn.endswith((".ml", ".mli")):
                with open(os.path.join(d, fn), "rb") as f:
                    h.update(f.read())
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, timeout=10).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        ocaml = "unknown"
    return {"commit": commit, "lib_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "ocaml": ocaml,
            "cpu_probe_s": cpu_probe_s()}


# ---- processes ----------------------------------------------------------

def start_cluster(out, w, trace, wal_dir, setup_only):
    args = [EXE, "cluster", "--out", out, "--trace", str(trace),
            "--lease", "1" if w.get("lease") else "0", "--keys", str(KEYS),
            "--setup-only", "1" if setup_only else "0"]
    if wal_dir:
        args += ["--wal-dir", wal_dir]
    if "kill_at" in w:
        args += ["--kill-at", str(w["kill_at"] * w["seconds"]),
                 "--restart-at", str(w["restart_at"] * w["seconds"])]
    t = time.monotonic()
    p = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         text=True)
    line = p.stdout.readline()
    setup = time.monotonic() - t
    if not line.startswith("READY "):
        p.kill()
        p.wait()
        raise RunError("cluster did not come up")
    return p, setup, json.loads(line[6:])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def run_once(name, seed, seconds, trace, out, sampler):
    w = dict(WORKLOADS[name], seconds=seconds)
    durable = w.get("durable", False)
    wal_root = os.path.join(out, "wal")
    setups = []
    for _ in range(SETUPS - 1):
        if durable:
            fresh_dir(wal_root)
        p, s, _ = start_cluster(out, w, trace, wal_root if durable else None, True)
        try:
            p.wait(timeout=10)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
        setups.append(s)
    if durable:
        fresh_dir(wal_root)
    cluster, s, ready = start_cluster(out, w, trace,
                                      wal_root if durable else None, False)
    setups.append(s)
    sampler.pid = cluster.pid
    gen = None
    try:
        t0 = time.monotonic_ns() + int((0.3 + WARMUP_S) * 1e9)
        cluster.stdin.write(f"START {t0} {seconds}\n")
        cluster.stdin.flush()
        conns = max(1, min(os.cpu_count() or 1, 2))
        gen = subprocess.Popen(
            [EXE, "gen", "--out", out,
             "--ports", ",".join(str(p) for p in ready["ports"]),
             "--target", str(ready["leader"]), "--mode", w["mode"],
             "--clients", str(w.get("clients", 0)),
             "--rate", str(w.get("rate", 0.0)),
             "--read-frac", str(w.get("read_frac", 0.0)),
             "--keys", str(KEYS), "--value-size", str(VALUE_SIZE),
             "--seed", str(seed), "--t0-ns", str(t0),
             "--warmup-s", str(WARMUP_S), "--seconds", str(seconds),
             "--drain-s", str(DRAIN_S), "--resend-s", str(RESEND_S),
             "--conns", str(conns)])
        if gen.wait(timeout=seconds + WARMUP_S + DRAIN_S + 30) != 0:
            raise RunError("generator failed")
        cluster.stdin.write("FINISH\n")
        cluster.stdin.flush()
        if cluster.wait(timeout=60) != 0:
            raise RunError("cluster process failed")
    finally:
        for p in (gen, cluster):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
    if durable:
        wal_bytes = sum(os.path.getsize(os.path.join(d, f))
                        for d, _, fs in os.walk(wal_root) for f in fs)
    else:
        wal_bytes = 0
    return w, t0, setups, ready, wal_bytes


# ---- analysis -------------------------------------------------------------

def pct(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, max(0, int(q * len(sorted_vals) + 0.5) - 1))
    return sorted_vals[i]


def load_ops(out):
    ops = []
    with open(os.path.join(out, "gen_ops.txt")) as f:
        for line in f:
            ops.append(tuple(map(int, line.split())))
    return ops


def check(ops, final_path, violations):
    """Reads see a value written to their key; the final state keeps every
    acknowledged Put (no acked Put is real-time-before the final value)."""
    puts = {}
    last_acked_send = {}
    for kind, tag, key, _c, _s, _d, send, ack, _r, _x, _n in ops:
        if kind == 0:
            puts[tag] = (key, send, ack)
            if ack and send > last_acked_send.get(key, 0):
                last_acked_send[key] = send
    for kind, _t, key, cid, seq, _d, _s, ack, rtag, _x, _n in ops:
        if kind == 1 and ack and rtag >= 0:
            p = puts.get(rtag)
            if p is None or p[0] != key or p[1] == 0 or p[1] > ack:
                violations.append(f"read ({cid},{seq}) of key {key} saw a value never written there")
    final = {}
    with open(final_path) as f:
        for line in f:
            k, tag = map(int, line.split())
            final[k] = tag
    for key, s in last_acked_send.items():
        tag = final.get(key)
        if tag is None:
            violations.append(f"acknowledged Put to key {key} lost")
            continue
        p = puts.get(tag)
        if p is None or p[0] != key:
            violations.append(f"key {key} holds a value never written there")
        elif p[2] and p[2] < s:
            violations.append(f"key {key} lost a later acknowledged Put")
    for key, tag in final.items():
        if key not in last_acked_send and (tag not in puts or puts[tag][0] != key):
            violations.append(f"key {key} holds a value never written there")


def phases(out, ops, closed):
    """Split sampled writes: ingress->Accept, Accept->execute, execute->reply."""
    acc, exe, events = {}, {}, []
    with open(os.path.join(out, "cluster_spans.txt")) as f:
        for line in f:
            p = line.split()
            if p[0] == "A":
                acc[(int(p[1]), int(p[2]))] = int(p[3])
                continue
            r, k, s, e = int(p[1]), (int(p[2]), int(p[3])), int(p[4]), int(p[5])
            if k not in exe or s < exe[k][0]:
                exe[k] = (s, e)
            events.append({"name": "execute", "cat": "service", "ph": "X",
                           "pid": 1, "tid": r + 1, "ts": s / 1e3,
                           "dur": (e - s) / 1e3,
                           "args": {"client_id": k[0], "seq": k[1]}})
    p1, p2, p3, lat = [], [], [], []
    for kind, _t, _k, cid, seq, due, send, ack, _r, _x, conn in ops:
        k = (cid, seq)
        if (cid * 31 + seq) % 10 != 0 or not ack:   # Common.sampled
            continue
        events.append({"name": "request", "cat": "gen", "ph": "X", "pid": 0,
                       "tid": conn, "ts": send / 1e3, "dur": (ack - send) / 1e3,
                       "args": {"client_id": cid, "seq": seq}})
        if kind == 0 and k in acc and k in exe:
            a, (s, e) = acc[k], exe[k]
            p1.append(a - send)
            p2.append(s - a)
            p3.append(ack - e)
            lat.append(ack - (send if closed else due))
    for (cid, seq), t in acc.items():
        events.append({"name": "accept", "cat": "paxos", "ph": "i", "s": "t",
                       "pid": 1, "tid": 0, "ts": t / 1e3,
                       "args": {"client_id": cid, "seq": seq}})
    with open(os.path.join(out, "spans.json"), "w") as f:
        json.dump({"traceEvents": events}, f)
    mean = lambda v: sum(v) / len(v) / 1e6 if v else 0.0
    m1, m2, m3, ml = mean(p1), mean(p2), mean(p3), mean(lat)
    return m1, m2, m3, ((m1 + m2 + m3) / ml if ml else 0.0), len(lat)


def analyse(name, w, t0, setups, ready, wal_bytes, out, trace, sampler):
    seconds = w["seconds"]
    t_end = t0 + int(seconds * 1e9)
    closed = w["mode"] == "closed"
    ops = load_ops(out)
    with open(os.path.join(out, "gen.json")) as f:
        gen = json.load(f)
    with open(os.path.join(out, "cluster.json")) as f:
        cl = json.load(f)
    violations = list(gen["violation_examples"]) + list(cl["violations"])
    if gen["violations"] > len(gen["violation_examples"]):
        violations.append(f"{gen['violations']} generator violations in all")
    check(ops, os.path.join(out, "final.txt"), violations)

    # Closed loop: requests answered in the window, timed from their send.
    # Open loop: requests due in the window, timed from when they were due.
    if closed:
        attempted = [o for o in ops if t0 <= o[6] < t_end]
        timed = [(o[7], o[7] - o[6]) for o in ops if t0 <= o[7] < t_end]
    else:
        attempted = [o for o in ops if t0 <= o[5] < t_end]
        timed = [(o[5], o[7] - o[5]) for o in attempted if o[7]]
    lat = sorted(l for _, l in timed)
    done = len(lat)
    # The hypervisor steals CPU from this host in bursts of seconds, and
    # a closed loop slows down with it. The end-to-end rates and latencies
    # are therefore medians over SLICE_S slices, leaving out the slices in
    # which more than STEAL_MAX of the host's CPU time was stolen (keeping
    # at least the least-stolen quarter). In failover too: its outage
    # is measured by unavailable_s and recovery_s over the whole run.
    host = sampler.per_slice(t0, t_end, max(1, round(seconds / SLICE_S)))
    slices = [[] for _ in host]
    for t, l in timed:
        slices[min(len(slices) - 1, (t - t0) * len(slices) // (t_end - t0))].append(l)
    slice_s = seconds / len(slices)
    stolen = STEAL_MAX * slice_s * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
    order = sorted(range(len(host)), key=lambda i: host[i][0])
    quiet = [i for i in order if host[i][0] <= stolen]
    if len(quiet) < len(order) // 4:
        quiet = order[:max(1, len(order) // 4)]
    quiet_ops = sum(len(slices[i]) for i in quiet)
    acks = sorted(o[7] for o in ops if o[7])
    if not acks:
        raise RunError("no request was answered")
    # Memory grows with the requests served, so it is read when the
    # workload's fixed count of replies had arrived, not at the end.
    k = w["rss_ops"]
    rss_kb = sampler.hwm_at(acks[k - 1] if len(acks) >= k else acks[-1])
    failed = sum(1 for o in attempted if not o[7])
    late = sorted(o[6] - o[5] for o in attempted if o[6])
    ms = lambda ns: ns / 1e6
    window_s = cl["window_ns"] / 1e9
    e2e = {
        "throughput_rps": statistics.median(len(slices[i]) for i in quiet) / slice_s,
        "latency_p50_ms": ms(statistics.median(pct(sorted(slices[i]), 0.50) for i in quiet)),
        "cpu_us_per_op": sum(host[i][1] for i in quiet) / max(quiet_ops, 1) * 1e6,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    fo = cl["failover"]
    if "kill_ns" in fo:
        after = [a for a in acks if a > fo.get("killed_ns", fo["kill_ns"])]
        unavailable = (after[0] - fo["kill_ns"]) / 1e9 if after else float(seconds)
        recovery = ((fo["caught_up_ns"] - fo["restart_ns"]) / 1e9
                    if "caught_up_ns" in fo else float(seconds))
        election = ((fo["elected_ns"] - fo["kill_ns"]) / 1e9
                    if "elected_ns" in fo else float(seconds))
        max_lag = fo.get("max_lag", 0)
    else:
        win = [a for a in acks if t0 <= a < t_end]
        unavailable = max((b - a for a, b in zip(win, win[1:])), default=0) / 1e9
        recovery = (cl["settled_ns"] - cl["finish_ns"]) / 1e9
        election = ready["election_s"]
        max_lag = cl["max_lag"]
    diag = {
        "latency_p99_ms": ms(statistics.median(pct(sorted(slices[i]), 0.99) for i in quiet)),
        "latency_p999_ms": ms(pct(lat, 0.999)), "latency_samples": len(lat),
        "failed_ratio": failed / max(len(attempted), 1),
        "unavailable_s": unavailable, "recovery_s": recovery,
        "gen.lateness_max_ms": ms(late[-1]) if late else 0.0,
        "durable_hold_p50_ms": cl["durable_hold_p50_s"] * 1e3,
        "setups_s": setups, "duplicates": gen["duplicates"],
        "slice_rps": [len(v) / slice_s for v in slices],
        "slice_steal": [h[0] for h in host],
        "quiet_slices": len(quiet),
        "peak_rss_end_mb": cl["peak_rss_kb"] / 1024.0,
        # -1 when Replica.stop did not return (see cluster.ml)
        "replica_stop_s": cl["replica_stop_s"],
    }
    gen_cpu_frac = gen["cpu_window_s"] / (seconds * gen["conns"])
    lateness_p99 = ms(pct(late, 0.99))
    if not trace:
        return e2e, diag, attempted, failed, violations, gen_cpu_frac, lateness_p99

    st = cl["stages"]
    frac = lambda s: (st[s]["busy_ns"] / st[s]["life_ns"]
                      if s in st and st[s]["life_ns"] else 0.0)
    per_op = lambda x: x / max(done, 1)
    inst_rate = cl["decided"] / window_s
    writes_done = sum(1 for o in ops if o[0] == 0 and t0 <= o[7] < t_end)
    reads_rate = cl["reads_served"] / window_s
    wait_ms = lambda depth, rate: depth / rate * 1e3 if rate > 0 else 0.0
    if cl["svc_read_n"]:
        read_us = cl["svc_read_ns"] / cl["svc_read_n"] / 1e3
    else:
        read_us = cl["svc_readback_ns"] / max(cl["svc_readback_n"], 1) / 1e3
    lease_total = cl["reads_served"] + cl["reads_rejected"]
    p1, p2, p3, coverage, n_phase = phases(out, ops, closed)
    diag["phase_samples"] = n_phase
    layer = {
        "client_io.replies_per_flush": cl["client_io_replies"] / max(cl["client_io_flushes"], 1),
        "client_io.busy_frac": frac("client_io"),
        "client_server.busy_frac": frac("client_server"),
        "batcher.ops_per_instance": cl["executed"] / max(cl["decided"], 1),
        "batcher.request_queue_wait_ms": wait_ms(cl["mean_request_queue"], writes_done / seconds),
        "batcher.busy_frac": frac("batcher"),
        "paxos.instances_per_s": inst_rate,
        "paxos.window_in_use_mean": cl["mean_window_in_use"],
        "paxos.proposal_queue_wait_ms": wait_ms(cl["mean_proposal_queue"], inst_rate),
        "paxos.dispatcher_queue_wait_ms": wait_ms(
            cl["mean_dispatcher_queue"], cl["leader_recv_frames"] / window_s + inst_rate),
        "paxos.busy_frac": frac("paxos"),
        "paxos.election_s": election,
        "paxos.view_changes": cl["view_changes"],
        "transport.frames_per_op": per_op(cl["hub_frames"]),
        "transport.bytes_per_op": per_op(cl["link_bytes"]),
        "transport.accept_frames_per_op": per_op(cl["link_accept"]),
        "transport.accepted_frames_per_op": per_op(cl["link_accepted"]),
        "transport.decide_frames_per_op": per_op(cl["link_decide"]),
        "transport.other_frames_per_op": per_op(cl["link_other"]),
        "transport.send_us_per_frame": cl["link_send_ns"] / max(cl["link_frames"], 1) / 1e3,
        "replica_io.send_busy_frac": frac("replica_io_send"),
        "replica_io.recv_busy_frac": frac("replica_io_recv"),
        "service.write_execute_us": cl["svc_write_ns"] / max(cl["svc_write_n"], 1) / 1e3,
        "service.read_execute_us": read_us,
        "replica.decision_queue_wait_ms": wait_ms(cl["mean_decision_queue"], inst_rate + reads_rate),
        "replica.busy_frac": frac("replica"),
        "lease.read_reject_ratio": cl["reads_rejected"] / lease_total if lease_total else 0.0,
        "wal.fsyncs_per_op": per_op(cl["wal_syncs"]),
        "wal.group_size_mean": cl["wal_group_records"] / cl["wal_groups"] if cl["wal_groups"] else 0.0,
        "wal.bytes_per_op": wal_bytes / max(sum(1 for o in ops if o[0] == 0 and o[7]), 1),
        "stable_storage.busy_frac": frac("stable_storage"),
        "recovery.max_lag_instances": max_lag,
        "recovery.snapshot_installs": cl["snapshot_installs"],
        "unavailable_s": unavailable,
        "recovery_s": recovery,
        "phase.ingress_to_accept_ms": p1,
        "phase.accept_to_execute_ms": p2,
        "phase.execute_to_reply_ms": p3,
        "phase.coverage": coverage,
        "gc.minor_words_per_op": per_op(cl["minor_words"]),
        "gc.major_collections_per_kop": per_op(cl["major_collections"]) * 1e3,
        "process.cpu_cores": cl["cpu_s"] / window_s,
        "thread_state.busy_over_cpu": (st["all"]["busy_ns"] / 1e9 / cl["cpu_s"]
                                       if cl["cpu_s"] else 0.0),
        "gen.cpu_frac": gen_cpu_frac,
        "gen.lateness_p99_ms": lateness_p99,
        "failed_ratio": diag["failed_ratio"],
        "traced.throughput_rps": e2e["throughput_rps"],
        "traced.latency_p50_ms": e2e["latency_p50_ms"],
        "latency_p99_ms": diag["latency_p99_ms"],
        "latency_p999_ms": diag["latency_p999_ms"],
    }
    return layer, diag, attempted, failed, violations, gen_cpu_frac, lateness_p99


def run(name, seed, seconds, trace):
    out = os.path.join(HERE, "_out", f"{name}-{'trace' if trace else 'plain'}")
    fresh_dir(out)
    build()
    fp = fingerprint()
    sampler = HostSampler()
    sampler.start()
    try:
        w, t0, setups, ready, wal_bytes = run_once(name, seed, seconds, trace,
                                                   out, sampler)
    finally:
        sampler.stop()
    fp["steal_jiffies"] = sum(h[0] for h in sampler.per_slice(
        t0, t0 + int(seconds * 1e9), 1))
    print("env " + json.dumps(fp))
    metrics, diag, attempted, failed, violations, cpu_frac, late_p99 = analyse(
        name, w, t0, setups, ready, wal_bytes, out, trace, sampler)
    print("diag " + json.dumps(diag))
    for f in ("gen_ops.txt", "cluster_spans.txt"):
        if os.path.exists(os.path.join(out, f)):
            os.remove(os.path.join(out, f))
    shutil.rmtree(os.path.join(out, "wal"), ignore_errors=True)
    for v in violations[:20]:
        log("violation: " + v)
    units = {k: v[0] for k, v in LAYERS.items()} if trace else END_TO_END
    if cpu_frac > MAX_GEN_CPU_FRAC or late_p99 > MAX_LATENESS_P99_MS:
        log(f"invalid run: generator cpu share {cpu_frac:.2f}, "
            f"lateness p99 {late_p99:.2f} ms")
        return 3
    for k, v in metrics.items():
        print(f"{k} = {v} {units[k]}")
    print(json.dumps({
        "correct": not violations,
        "attempted": max(len(attempted), 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not violations else 1


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for wl in bench["workloads"]:
        results = {}
        for trace in (0, 1):
            r = subprocess.run(
                [sys.executable, __file__, "--workload", wl["name"], "--seed", "1",
                 "--seconds", "3", "--trace", str(trace)],
                stdout=subprocess.PIPE, timeout=300, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                log(f"smoke: {wl['name']} trace={trace} failed")
                ok = False
                continue
            res = json.loads(lines[-1])
            want = bench["per_layer"] if trace else bench["end_to_end"]
            for m in want:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    log(f"smoke: {wl['name']} lacks {m['name']} in {m['unit']}")
                    ok = False
            results[trace] = res["metrics"]
        spans = os.path.join(HERE, "_out", f"{wl['name']}-trace", "spans.json")
        try:
            with open(spans) as f:
                n = len(json.load(f)["traceEvents"])
            if n == 0:
                raise ValueError("no spans")
        except (OSError, ValueError, KeyError) as e:
            log(f"smoke: {wl['name']} span file unreadable: {e}")
            ok = False
        if 0 in results and 1 in results:
            plain, traced = results[0], results[1]
            print(f"{wl['name']}: tracing overhead in one short run, within "
                  f"host noise; compare medians of full runs for a figure: "
                  f"throughput {traced['traced.throughput_rps']['value'] / plain['throughput_rps']['value'] - 1:+.1%}, "
                  f"p50 {traced['traced.latency_p50_ms']['value'] / plain['latency_p50_ms']['value'] - 1:+.1%}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main():
    # On SIGTERM, unwind so that the finally blocks stop the child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    try:
        if a.smoke:
            return smoke()
        if a.workload is None:
            ap.error("--workload is required")
        return run(a.workload, a.seed, a.seconds, a.trace)
    except (RunError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
