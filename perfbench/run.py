#!/usr/bin/env python3
"""Repository benchmark: runs one named workload against the MIO engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first run builds the library, the
`mio` CLI and perfbench/harness.cpp into $CARGO_TARGET_DIR (default
.bench_build); run artefacts (datasets, span files, server logs) go to
.bench_runs/. Each workload's preset dataset is written with `mio generate`
at the generator's default seed and loaded back through io; the --seed
makes the query radii and the served traffic. Datasets drawn per seed
differ too much in cost (syn qps 0.70-1.35 across five seeds) for any
bound to hold.

Workloads (see perfbench/README.md; BENCHMARK.json lists all but
syn-fresh, whose timings swing too far on a shared host):
  syn-fresh    fresh BIGrid queries on syn quick, threads=4
  bird-fresh   fresh BIGrid queries on bird quick, threads=1
  bird-batch   one QueryBatch r-sweep per request on bird quick, threads=1
  serve-mixed  `mio serve` over bird2 quick, 4 closed-loop socket clients

Every answer is checked against NL-kd (the direct workloads check every
distinct radius, serve-mixed a seeded sample of the served radii) outside
the timed region. The last stdout line is one JSON object: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics. A wrong,
incomplete or refused answer counts in `failed` and makes the command exit
1 after printing its result.

--self-test runs the benchmark's own checks: the deterministic work
counters repeat exactly across two traced runs at one seed on every direct
workload, and an injected wrong answer is counted as failed and makes the
command exit non-zero.
"""

import argparse
import json
import math
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
RUN_ROOT = ".bench_runs"
WARM_STREAM = 1 << 20  # serve-mixed warm-up traffic; timed segments use 0..7
WARM_PER_CLIENT = 15   # serve-mixed warm-up requests per client
SERVE_SETUP_REPS = 25  # mio serve start-ups per run; setup_s is their median
# serve-mixed reads the plain server's peak RSS once it has answered this
# many timed requests. Each connection leaves its session thread behind
# until shutdown (see README), so a read at the end of the run would grow
# with throughput.
RSS_AT_REQUESTS = 400

# tail_pct is fixed per workload, so runs of two versions report the same
# percentile with >= 10 requests beyond it at the request count a 15-second
# run makes. bird-fresh (~72 requests) takes the highest such, p85.
# serve-mixed (850-2100) takes p95: its p98 swung 1.3x between the fast
# and slow states of a shared host, beyond the bound. syn-fresh (12) and
# bird-batch (4-9) have no such percentile and report p90.
WORKLOADS = {
    "syn-fresh": {
        "kind": "direct", "mode": "fresh", "preset": "syn", "threads": 4,
        "r_lo": 4.0, "r_hi": 6.0, "cycle": 6, "tail_pct": 90,
    },
    "bird-fresh": {
        "kind": "direct", "mode": "fresh", "preset": "bird", "threads": 1,
        "r_lo": 3.0, "r_hi": 9.0, "cycle": 12, "tail_pct": 85,
        "probe": True,
    },
    "bird-batch": {
        "kind": "direct", "mode": "batch", "preset": "bird", "threads": 1,
        "classes": (4, 5, 6, 7), "per_class": 6, "tail_pct": 90,
    },
    "serve-mixed": {
        "kind": "serve", "preset": "bird2", "workers": 2, "clients": 4,
        "r_lo": 3.0, "r_hi": 9.0, "hot": 20, "hot_share": 0.2,
        "oracle_sample": 24, "tail_pct": 95,
    },
}

END_TO_END = {
    "setup_s": "s", "qps": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "io.load_s": "s",
    "core.grid_mapping_s": "s", "core.cells_small": "count",
    "core.cells_large": "count", "core.index_bytes": "bytes",
    "core.lower_bounding_s": "s", "core.lb_cell_ors": "count",
    "core.upper_bounding_s": "s", "core.ub_cell_ors": "count",
    "core.adj_builds": "count", "core.candidates": "count",
    "core.verification_s": "s", "core.verified": "count",
    "core.verify_points": "count", "core.verify_points_settled": "count",
    "core.verified_per_candidate": "ratio", "core.other_s": "s",
    "core.verify_imbalance": "ratio", "core.cpu_busy_share": "share",
    "core.warmup_query_s": "s", "core.t4_upper_bounding_max_s": "s",
    "core.t4_speedup": "ratio",
    "core.verification_s_loaded": "s", "core.verification_s_generated": "s",
    "geo.posting_scans": "count", "geo.distance_computations": "count",
    "geo.kernel_batches": "count", "geo.kernel_batch_share": "ratio",
    "labels.hits": "count", "labels.misses": "count",
    "labels.points_pruned": "count",
    "batch.grid_builds_saved": "count", "batch.cells_partitioned": "count",
    "batch.octants_pruned": "count", "batch.arena_high_water_bytes": "bytes",
    "server.queue_wait_p50_ms": "ms", "server.queue_wait_p99_ms": "ms",
    "server.execute_p50_ms": "ms", "server.execute_p99_ms": "ms",
    "server.coalesced": "count", "server.cache_hits": "count",
    "server.cache_hit_share": "share", "server.overload_rejected": "count",
    "server.shed_labels": "count", "server.class_first_query_ms": "ms",
    "obs.tracing_overhead": "ratio", "obs.qlog_records": "count",
    "obs.evlog_events": "count", "obs.evlog_dropped": "count",
    "loadgen.cpu_share": "share", "failed_share": "share",
}

# Work counters that must repeat exactly across traced runs at one seed.
DETERMINISTIC = (
    "core.candidates", "core.verified", "core.lb_cell_ors",
    "core.ub_cell_ors", "core.adj_builds", "geo.posting_scans",
    "geo.distance_computations",
)


def percentile(values, pct):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, pct):
    """(value, requests beyond it) for the workload's tail percentile."""
    v = percentile(values, pct)
    return v, sum(1 for x in values if x > v)


# --- build and inputs -----------------------------------------------------

def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
             "perfbench_harness", "mio_cli"]]
    for cmd in cmds:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD_DIR, "perfbench_harness"),
            os.path.join(BUILD_DIR, "mio", "tools", "mio"))


def generate(mio, preset):
    """Writes the preset at the generator's default seed afresh (the
    generator may have changed) to the one path every run shares."""
    data_dir = os.path.join(RUN_ROOT, "data")
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, preset + ".bin")
    subprocess.run([mio, "generate", "--preset=" + preset, "--scale=quick",
                    "--out=" + path],
                   check=True, stdout=subprocess.DEVNULL)
    return path


def radius_cycle(rng, lo, hi, n):
    """n radii, one near the middle of each equal slice of [lo, hi], at
    0.001 resolution, in a seeded order: every seed gets nearly the same
    spread of query costs."""
    width = (hi - lo) / n
    radii = [round(lo + width * (i + rng.uniform(0.4, 0.6)), 3)
             for i in range(n)]
    rng.shuffle(radii)
    return radii


def batch_sweep(rng, classes, per_class):
    """per_class radii inside each ceil(r) class (c-1, c], at 0.001."""
    radii = []
    for c in classes:
        for i in range(per_class):
            radii.append(round(c - 1 + (i + rng.uniform(0.4, 0.6)) /
                               per_class, 3))
    return radii


def key(r):
    return "%.3f" % r


def oracle(harness, data, radii):
    """NL-kd per radius key, in a process of its own: its top-k and the
    exact score of every object scoring at least its k-th best."""
    if not radii:
        return {}, {}
    out = subprocess.run(
        [harness, "oracle", "--in=" + data,
         "--radii=" + ",".join(key(r) for r in radii)],
        check=True, capture_output=True, text=True).stdout
    doc = json.loads(out)
    expected = {key(a["r"]): ([tuple(x) for x in a["topk"]],
                              {i: t for i, t in a["at_least_kth"]})
                for a in doc["answers"]}
    return expected, doc


def check(topk, expected):
    """'exact' when topk is NL-kd's, 'tie' when it differs only in which
    of several equally scored objects it names, else 'wrong'."""
    nl_topk, scores = expected
    if topk == nl_topk:
        return "exact"
    ids = [i for i, _ in topk]
    if ([t for _, t in topk] == [t for _, t in nl_topk] and
            len(set(ids)) == len(ids) and
            all(scores.get(i) == t for i, t in topk)):
        return "tie"
    return "wrong"


def nproc():
    return os.cpu_count() or 1


def verdict_line(what, verdict):
    verdicts = list(verdict.values())
    return ("NL-kd on %s: %d exact, %d equal-score tie named differently, "
            "%d wrong" % (what, verdicts.count("exact"), verdicts.count("tie"),
                          verdicts.count("wrong")))


# --- direct workloads (MioEngine::Query / QueryBatch) ---------------------

def run_direct(wl, args, harness, mio, run_dir):
    rng = random.Random(args.seed)
    data = generate(mio, wl["preset"])
    if wl["mode"] == "batch":
        radii = batch_sweep(rng, wl["classes"], wl["per_class"])
    else:
        radii = radius_cycle(rng, wl["r_lo"], wl["r_hi"], wl["cycle"])
    cmd = [harness, "direct", "--in=" + data, "--mode=" + wl["mode"],
           "--radii=" + ",".join(key(r) for r in radii),
           "--threads=%d" % wl["threads"], "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--spans=" + os.path.join(run_dir, "spans.jsonl"))
        if wl["mode"] == "fresh":
            cmd.append("--generated-preset=" + wl["preset"])
        if wl.get("probe"):
            cmd.append("--probe")
    doc = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                    text=True).stdout)

    # Correctness, outside the timed region: every distinct radius the
    # engine answered against NL-kd, and repeats against each other.
    members = [m for req in doc["requests"] for m in req["members"]]
    answered = {}
    for m in members + doc["warmup"]["members"]:
        answered.setdefault(key(m["r"]), [tuple(x) for x in m["topk"]])
    if args.inject_wrong_answer:
        first = key(members[0]["r"])
        ident, tau = answered[first][0]
        answered[first] = [(ident, tau + 1)] + answered[first][1:]
    expected, odoc = oracle(harness, data, sorted(float(r) for r in answered))
    verdict = {r: check(answered[r], expected[r]) for r in answered}
    failed = 0
    for m in members:
        topk = [tuple(x) for x in m["topk"]]
        r = key(m["r"])
        if (not m["ok"] or not m["complete"] or verdict[r] == "wrong" or
                topk != answered[r]):
            failed += 1
    # The generator's in-memory set must answer as the file-loaded one.
    io_mismatch = "gap" in doc and not doc["gap"]["same_answers"]
    failed += io_mismatch
    attempted = len(members)
    wall = doc["timed_wall_s"]
    lat_ms = [1e3 * req["lat_s"] for req in doc["requests"]]
    tail_v, beyond = tail(lat_ms, wl["tail_pct"])
    info = {
        "kernel_tier": doc["kernel_tier"], "pmu_tier": doc["pmu_tier"],
        "git": doc["git_describe"],
        "requests": len(lat_ms), "tail": "p%d of %d requests, %d beyond" % (
            wl["tail_pct"], len(lat_ms), beyond),
        "check": verdict_line("all %d distinct radii" % len(verdict),
                              verdict) +
        ("; loaded and generated sets DISAGREE" if io_mismatch else ""),
    }
    e2e = {
        "setup_s": statistics.median(doc["setup_s"]),
        "qps": (attempted - failed) / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_v,
        "peak_rss_mib": doc["peak_rss_kib"] / 1024.0,
    }
    layers = None
    if args.trace:
        layers = direct_layers(wl, doc, members, attempted, failed)
    return attempted, failed, e2e, layers, info


def direct_layers(wl, doc, members, attempted, failed):
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["io.load_s"] = statistics.median(doc["load_s"])
    m["core.warmup_query_s"] = doc["warmup"]["lat_s"]
    n = len(members)
    phase_sum = [sum(x["phases"][i] for x in members) for i in range(5)]
    m["core.grid_mapping_s"] = phase_sum[1] / n
    m["core.lower_bounding_s"] = phase_sum[2] / n
    m["core.upper_bounding_s"] = phase_sum[3] / n
    m["core.verification_s"] = phase_sum[4] / n
    total_lat = sum(req["lat_s"] for req in doc["requests"])
    m["core.other_s"] = (total_lat - sum(phase_sum)) / n

    # Work counts over one deterministic unit: one pass of the radius
    # cycle (fresh) or one batch (batch) — the first time each ran.
    if wl["mode"] == "batch":
        unit = [doc["requests"][0]]
    else:
        seen, unit = set(), []
        for req in doc["requests"]:
            r = key(req["members"][0]["r"])
            if r not in seen:
                seen.add(r)
                unit.append(req)
    umembers = [x for req in unit for x in req["members"]]
    counters = {}
    for req in unit:
        for name, v in req["counters"].items():
            counters[name] = counters.get(name, 0) + v

    def total(field):
        return sum(x[field] for x in umembers)

    m["core.cells_small"] = total("cells_small") / len(umembers)
    m["core.cells_large"] = total("cells_large") / len(umembers)
    m["core.index_bytes"] = total("index_bytes") / len(umembers)
    m["core.candidates"] = total("candidates")
    m["core.verified"] = total("verified")
    m["geo.distance_computations"] = total("distance_computations")
    m["labels.points_pruned"] = total("points_pruned")
    m["core.verified_per_candidate"] = (
        m["core.verified"] / m["core.candidates"]
        if m["core.candidates"] else 0.0)
    for layer, counter in (
            ("core.lb_cell_ors", "lb_cell_ors"),
            ("core.ub_cell_ors", "ub_cell_ors"),
            ("core.adj_builds", "adj_builds"),
            ("core.verify_points", "verify_points"),
            ("core.verify_points_settled", "verify_points_settled"),
            ("geo.posting_scans", "posting_scans"),
            ("geo.kernel_batches", "kernel_batches"),
            ("labels.hits", "labels.cache_hits"),
            ("labels.misses", "labels.cache_misses"),
            ("batch.grid_builds_saved", "batch.grid_builds_saved"),
            ("batch.cells_partitioned", "batch.cells_partitioned"),
            ("batch.octants_pruned", "verify_octants_pruned")):
        m[layer] = counters.get(counter, 0)
    m["geo.kernel_batch_share"] = (
        m["geo.kernel_batches"] / m["geo.posting_scans"]
        if m["geo.posting_scans"] else 0.0)
    if wl["mode"] == "batch":
        m["batch.arena_high_water_bytes"] = max(
            req["batch"]["arena_high_water_bytes"] for req in doc["requests"])
    # Parallel behaviour comes from the probe pass when the timed region
    # runs serially.
    probe = doc.get("probe")
    par = doc
    par_members = members
    if probe:
        par = probe
        par_members = [q["member"] for q in probe["queries"]]
        first_pass = sum(req["lat_s"] for req in unit)
        m["core.t4_upper_bounding_max_s"] = max(
            x["phases"][3] for x in par_members)
        m["core.t4_speedup"] = first_pass / sum(
            q["lat_s"] for q in probe["queries"])
    imb = [x["verify_imbalance"] for x in par_members
           if x["verify_imbalance"] > 0]
    m["core.verify_imbalance"] = statistics.mean(imb) if imb else 0.0
    wall = par.get("wall_s", doc["timed_wall_s"])
    m["core.cpu_busy_share"] = par["cpu_s"] / (wall * par["threads"])
    gap = doc.get("gap")
    if gap:
        m["core.verification_s_loaded"] = statistics.mean(
            gap["loaded_verification_s"])
        m["core.verification_s_generated"] = statistics.mean(
            gap["generated_verification_s"])
    m["failed_share"] = failed / attempted
    return m


# --- serve-mixed (mio serve over its Unix socket) -------------------------

class Server:
    """A `mio serve` child process; stopped and reaped by stop().

    setup_s runs from the spawn until the socket accepts. pre_clock_s is
    the time from the spawn until the server's own clock started, at the
    end of MioServer construction: exec, the dataset load through io and
    engine construction, read as the time to a `health` response minus the
    uptime it reports."""

    def __init__(self, mio, data, sock, workers, log_path, extra=()):
        if os.path.exists(sock):
            os.unlink(sock)
        self.sock = sock
        self.log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [mio, "serve", "--in=" + data, "--socket=" + sock,
             "--workers=%d" % workers] + list(extra),
            stdout=self.log, stderr=self.log)
        while True:
            if self.proc.poll() is not None:
                self.stop()
                raise SystemExit("mio serve exited during start-up")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(sock)
                s.close()
                break
            except OSError:
                s.close()
                if time.perf_counter() - t0 > 60:
                    self.stop()
                    raise SystemExit("mio serve did not accept in 60 s")
                time.sleep(0.001)
        self.setup_s = time.perf_counter() - t0
        res, _ = call(sock, {"schema": "mio-serve-v1", "op": "health"})
        uptime = json.loads((res or {}).get("payload") or "{}").get(
            "uptime_seconds")
        if uptime is None:
            self.stop()
            raise SystemExit("mio serve gave no health uptime")
        self.pre_clock_s = time.perf_counter() - t0 - uptime

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def call(sock, req, attempts=5):
    """One request; connect, send, read the response line. Overloaded
    refusals are retried with backoff. Returns (response, seconds)."""
    line = (json.dumps(req) + "\n").encode()
    t0 = time.perf_counter()
    res = None
    for attempt in range(attempts):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.settimeout(60)
            s.connect(sock)
            s.sendall(line)
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        except OSError:
            buf = b""
        finally:
            s.close()
        try:
            res = json.loads(buf) if buf else None
        except ValueError:
            res = None
        if res is None or res.get("status") != "Overloaded":
            break
        time.sleep(max(res.get("retry_after_ms", 0.0),
                       10.0 * 2 ** attempt) / 1e3)
    return res, time.perf_counter() - t0


def query_req(rid, r):
    return {"schema": "mio-serve-v1", "id": rid, "op": "query", "r": r,
            "k": 1, "threads": 1, "use_labels": True}


def scrape_counters(sock):
    res, _ = call(sock, {"schema": "mio-serve-v1", "op": "metrics"})
    counters = {}
    for line in (res or {}).get("payload", "").splitlines():
        if line.startswith("mio_") and "_total " in line:
            name, value = line.split()
            counters[name[4:-6]] = float(value)
    return counters


class RssAt:
    """Reads a server's peak RSS when it has answered its n-th request."""

    def __init__(self, server, n):
        self.server, self.left, self.mib = server, n, None
        self.lock = threading.Lock()

    def answered(self):
        with self.lock:
            self.left -= 1
            if self.left == 0:
                self.mib = self.server.peak_rss_mib()


def serve_traffic(wl, seed, stream, sock, seconds=None, per_client=None,
                  id_prefix="c", rss_at=None):
    """4 closed-loop clients for `seconds`, or for `per_client` requests
    each; returns per-request records, wall seconds and this process's CPU
    seconds. `stream` picks the clients' radius sequences; the hot set
    depends on the seed alone."""
    hot_rng = random.Random(seed * 7919 + 1)
    hot = [round(hot_rng.uniform(wl["r_lo"], wl["r_hi"]), 3)
           for _ in range(wl["hot"])]
    weights = [1.0 / (i + 1) for i in range(len(hot))]
    records = [[] for _ in range(wl["clients"])]
    start = time.perf_counter()

    def client(c):
        rng = random.Random((seed * 1009 + stream) * 1009 + c)
        i = 0
        while (i < per_client if per_client is not None else
               time.perf_counter() - start < seconds):
            if rng.random() < wl["hot_share"]:
                r = rng.choices(hot, weights)[0]
            else:
                r = round(rng.uniform(wl["r_lo"], wl["r_hi"]), 3)
            res, lat = call(sock, query_req("%s%d-%d" % (id_prefix, c, i),
                                            r))
            records[c].append((r, res, lat))
            if rss_at:
                rss_at.answered()
            i += 1

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    threads = [threading.Thread(target=client, args=(c,))
               for c in range(wl["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return [x for recs in records for x in recs], wall, cpu


def warm(sock, wl, seed):
    """One query per ceil(r) class, off the 0.001 grid the traffic uses,
    then a fixed number of untimed requests of the traffic mix, which
    brings every worker up to speed; returns each class's first-query
    milliseconds."""
    first = {}
    for c in range(math.ceil(wl["r_lo"]), math.ceil(wl["r_hi"]) + 1):
        _, lat = call(sock, query_req("warm-%d" % c, c - 0.0005))
        first[c] = 1e3 * lat
    serve_traffic(wl, seed, WARM_STREAM, sock, per_client=WARM_PER_CLIENT,
                  id_prefix="warm-")
    return first


def run_serve(wl, args, harness, mio, run_dir):
    data = generate(mio, wl["preset"])
    server_log = os.path.join(run_dir, "server.log")
    sock = os.path.join(run_dir, "srv.sock")
    setups, pre_clock = [], []
    for _ in range(SERVE_SETUP_REPS - 1):
        s = Server(mio, data, sock, wl["workers"], server_log)
        setups.append(s.setup_s)
        pre_clock.append(s.pre_clock_s)
        s.stop()
    server = Server(mio, data, sock, wl["workers"], server_log)
    setups.append(server.setup_s)
    pre_clock.append(server.pre_clock_s)
    rss_at = RssAt(server, RSS_AT_REQUESTS)
    tserver = None
    # Per server: records, wall, load-generator CPU, server CPU.
    plain, traced_acc = [[], 0.0, 0.0, 0.0], [[], 0.0, 0.0, 0.0]
    try:
        first = warm(sock, wl, args.seed)
        schedule = [False]
        if args.trace:
            # A second server with qlog and evlog on takes every other
            # segment of the same traffic mix, in ABBA order, so host drift
            # cancels out of the traced / plain qps ratio.
            qlog = os.path.join(run_dir, "qlog.jsonl")
            evlog = os.path.join(run_dir, "evlog.jsonl")
            for p in (qlog, evlog):
                if os.path.exists(p):
                    os.unlink(p)
            tserver = Server(mio, data, os.path.join(run_dir, "traced.sock"),
                             wl["workers"], server_log,
                             ["--qlog=" + qlog, "--evlog=" + evlog])
            warm(tserver.sock, wl, args.seed)
            before = scrape_counters(tserver.sock)
            schedule = [False, True, True, False] * 2
        for stream, use_traced in enumerate(schedule):
            target, acc = ((tserver, traced_acc) if use_traced
                           else (server, plain))
            cpu0 = target.cpu_seconds()
            recs, wall, lg_cpu = serve_traffic(
                wl, args.seed, stream, target.sock,
                seconds=args.seconds / len(schedule),
                rss_at=None if use_traced else rss_at)
            acc[0] += recs
            acc[1] += wall
            acc[2] += lg_cpu
            acc[3] += target.cpu_seconds() - cpu0
        rss = rss_at.mib
        if rss is None:
            rss = server.peak_rss_mib()
        if tserver:
            after = scrape_counters(tserver.sock)
            stats, _ = call(tserver.sock,
                            {"schema": "mio-serve-v1", "op": "stats"})
            with open(os.path.join(run_dir, "server-stats.json"), "w") as f:
                f.write((stats or {}).get("payload", "") + "\n")
    finally:
        server.stop()
        if tserver:
            tserver.stop()
    records, wall, lg_cpu, srv_cpu = plain
    traced = None
    if tserver:
        traced = (traced_acc[0], traced_acc[1], before, after, qlog)

    # Correctness: responses for one radius must agree, and a seeded
    # sample of the served radii must match NL-kd.
    all_records = records + (traced[0] if traced else [])
    answers, failed_ids = {}, set()
    for i, (r, res, _) in enumerate(all_records):
        if (res is None or res.get("status") != "OK" or
                not res.get("complete", False)):
            failed_ids.add(i)
            continue
        topk = [(x["id"], x["tau"]) for x in res["topk"]]
        if answers.setdefault(key(r), topk) != topk:
            failed_ids.add(i)
    sample_rng = random.Random(args.seed * 31 + 17)
    served = sorted(answers)
    sample = sorted(sample_rng.sample(served, min(wl["oracle_sample"],
                                                  len(served))))
    if args.inject_wrong_answer and sample:
        ident, tau = answers[sample[0]][0]
        answers[sample[0]] = [(ident, tau + 1)] + answers[sample[0]][1:]
    expected, odoc = oracle(harness, data, [float(r) for r in sample])
    verdict = {r: check(answers[r], expected[r]) for r in sample}
    for i, (r, res, _) in enumerate(all_records):
        if verdict.get(key(r)) == "wrong":
            failed_ids.add(i)

    n = len(records)
    failed = sum(1 for i in failed_ids if i < n)
    lat_ms = [1e3 * lat for _, _, lat in records]
    tail_v, beyond = tail(lat_ms, wl["tail_pct"])
    info = {
        "kernel_tier": odoc.get("kernel_tier", "unknown"),
        "pmu_tier": odoc.get("pmu_tier", "unknown"),
        "git": odoc.get("git_describe", "unknown"),
        "requests": n, "tail": "p%d of %d requests, %d beyond" % (
            wl["tail_pct"], n, beyond),
        "rss": ("at the %dth timed request" % RSS_AT_REQUESTS
                if rss_at.mib is not None else
                "at the end: only %d timed requests, fewer than %d" % (
                    n, RSS_AT_REQUESTS)),
        "check": verdict_line(
            "%d of %d distinct served radii drawn with "
            "random.Random(seed*31+17)" % (len(sample), len(served)), verdict),
    }
    e2e = {
        "setup_s": statistics.median(setups),
        "qps": (n - failed) / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_v,
        "peak_rss_mib": rss,
    }
    attempted, total_failed = n, failed
    layers = None
    if traced:
        trecords, twall = traced[:2]
        tfailed = len(failed_ids) - failed
        attempted += len(trecords)
        total_failed += tfailed
        traced_qps = (len(trecords) - tfailed) / twall
        layers = serve_layers(wl, traced, first, statistics.median(pre_clock),
                              srv_cpu, wall, lg_cpu, e2e["qps"], traced_qps,
                              total_failed / attempted)
    return attempted, total_failed, e2e, layers, info


def serve_layers(wl, traced, first, io_load_s, srv_cpu, wall, lg_cpu,
                 untraced_qps, traced_qps, failed_share):
    trecords, twall, before, after, qlog = traced
    m = dict.fromkeys(PER_LAYER, 0.0)

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    with open(qlog) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    timed = [r for r in recs
             if not r["server"]["correlation_id"].startswith("warm-")]
    executed = [r for r in timed if r["server"]["role"] in ("solo", "leader")]
    if executed:
        qwait = [1e3 * r["server"]["queue_wait_seconds"] for r in executed]
        execute = [1e3 * r["wall_seconds"] for r in executed]
        m["server.queue_wait_p50_ms"] = percentile(qwait, 50)
        m["server.queue_wait_p99_ms"] = percentile(qwait, 99)
        m["server.execute_p50_ms"] = percentile(execute, 50)
        m["server.execute_p99_ms"] = percentile(execute, 99)
        n = len(executed)
        for layer, phase in (("core.grid_mapping_s", "grid_mapping"),
                             ("core.lower_bounding_s", "lower_bounding"),
                             ("core.upper_bounding_s", "upper_bounding"),
                             ("core.verification_s", "verification")):
            m[layer] = sum(r["phases"][phase] for r in executed) / n
        m["core.other_s"] = sum(r["wall_seconds"] - r["phases"]["total"]
                                for r in executed) / n
        m["core.index_bytes"] = sum(r["memory"]["index_bytes"]
                                    for r in executed) / n
        m["core.candidates"] = sum(r["funnel"]["candidates"] for r in executed)
        m["core.verified"] = sum(r["funnel"]["verified"] for r in executed)
        m["geo.distance_computations"] = sum(
            r["funnel"]["distance_computations"] for r in executed)
        m["labels.points_pruned"] = sum(r["labels"]["points_pruned"]
                                        for r in executed)
        if m["core.candidates"]:
            m["core.verified_per_candidate"] = (m["core.verified"] /
                                                m["core.candidates"])
    roles = [r["server"]["role"] for r in timed]
    m["server.coalesced"] = roles.count("follower")
    m["server.cache_hits"] = roles.count("cached")
    m["server.cache_hit_share"] = (roles.count("cached") / len(roles)
                                   if roles else 0.0)
    for layer, counter in (
            ("server.overload_rejected", "server_overload_rejected"),
            ("server.shed_labels", "server_shed_labels"),
            ("labels.hits", "labels_cache_hits"),
            ("labels.misses", "labels_cache_misses"),
            ("core.lb_cell_ors", "lb_cell_ors"),
            ("core.ub_cell_ors", "ub_cell_ors"),
            ("core.adj_builds", "adj_builds"),
            ("core.verify_points", "verify_points"),
            ("core.verify_points_settled", "verify_points_settled"),
            ("geo.posting_scans", "posting_scans"),
            ("geo.kernel_batches", "kernel_batches"),
            ("obs.evlog_events", "server_evlog_events"),
            ("obs.evlog_dropped", "server_evlog_dropped")):
        m[layer] = delta(counter)
    if m["geo.posting_scans"]:
        m["geo.kernel_batch_share"] = (m["geo.kernel_batches"] /
                                       m["geo.posting_scans"])
    m["io.load_s"] = io_load_s
    m["server.class_first_query_ms"] = max(first.values())
    m["core.cpu_busy_share"] = srv_cpu / (wall * wl["workers"])
    m["obs.qlog_records"] = len(recs)
    m["obs.tracing_overhead"] = traced_qps / untraced_qps - 1.0
    m["loadgen.cpu_share"] = lg_cpu / wall
    m["failed_share"] = failed_share
    return m


# --- entry point -----------------------------------------------------------

def run_once(args):
    wl = WORKLOADS[args.workload]
    harness, mio = build()
    run_dir = os.path.join(RUN_ROOT, "%s-%d-t%d" % (args.workload, args.seed,
                                                   args.trace))
    os.makedirs(run_dir, exist_ok=True)
    runner = run_serve if wl["kind"] == "serve" else run_direct
    attempted, failed, e2e, layers, info = runner(wl, args, harness, mio,
                                                  run_dir)
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d "
          "kernel_tier=%s pmu_tier=%s git=%s" % (
              args.workload, args.seed, args.seconds, args.trace, nproc(),
              info["kernel_tier"], info["pmu_tier"], info["git"]))
    print("# requests=%d latency_tail=%s" % (info["requests"], info["tail"]))
    if "rss" in info:
        print("# peak_rss_mib read %s" % info["rss"])
    print("# correctness: %s; failed %d of %d attempted" % (
        info["check"], failed, attempted))
    if args.trace:
        print("# spans and logs in %s" % run_dir)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def self_test():
    """The benchmark's own test; exit 0 when every check holds."""
    ok = True
    here = os.path.abspath(__file__)

    def run(workload, trace, extra=()):
        res = subprocess.run(
            [sys.executable, here, "--workload", workload, "--seed", "3",
             "--seconds", "2", "--trace", str(trace)] + list(extra),
            capture_output=True, text=True)
        last = res.stdout.strip().splitlines()[-1] if res.stdout else "{}"
        return res.returncode, json.loads(last)

    for workload, wl in WORKLOADS.items():
        if wl["kind"] != "direct":
            continue
        _, a = run(workload, 1)
        _, b = run(workload, 1)
        for name in DETERMINISTIC:
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            same = va == vb
            ok = ok and same
            print("%-11s %-27s %14d %14d %s" % (
                workload, name, va, vb, "same" if same else "DIFFERENT"))
    for workload in ("bird-fresh", "serve-mixed"):
        code, doc = run(workload, 0, ["--inject-wrong-answer"])
        counted = code != 0 and doc.get("failed", 0) > 0 and not doc.get(
            "correct", True)
        ok = ok and counted
        print("%-11s injected wrong answer: exit %d, failed %s -> %s" % (
            workload, code, doc.get("failed"), "counted" if counted else
            "NOT COUNTED"))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-wrong-answer", action="store_true",
                   help="corrupt one expected answer (self-test only)")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
