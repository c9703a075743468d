#!/usr/bin/env python3
"""hebench: the repo benchmark (see README.md).

    python3 hebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds hebench/ (the hentt
library, hentt-daemon and the load generator) into
$CARGO_TARGET_DIR/hebench (default .bench_build/hebench), runs one
workload, checks every output against the schoolbook oracle, and prints
a table of metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones and writes a Chrome trace next to the build.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

LOAD_TIMEOUT_S = 165


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark_spec():
    """Metric names and units, and each serve workload's p99 latency
    limit, all from BENCHMARK.json (the limit is stated in the
    workload's `why`)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    limits = {}
    for w in spec["workloads"]:
        m = re.search(r"p99 limit ([0-9.]+) ms", w["why"])
        if m:
            limits[w["name"]] = float(m.group(1))
    return spec, limits


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "hebench_load",
                    "hentt-daemon"], stdout=sys.stderr, check=True)


def stop_group(pgid):
    """Kill whatever is left of the load generator's process group (the
    daemon it spawned included) and wait until none of it remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_load(build_dir, args):
    raw_path = os.path.join(
        build_dir, f"raw-{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    # AF_UNIX paths are short; a relative one keeps it so.
    socket_path = os.path.relpath(
        os.path.join(build_dir, f"d{os.getpid()}.sock"))
    cmd = [os.path.join(build_dir, "hebench_load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "hentt", "hentt-daemon"),
           "--socket", socket_path, "--out", raw_path]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=LOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(proc.pid)
    proc.wait()
    if os.path.exists(socket_path):
        os.remove(socket_path)
    if code != 0:
        raise RuntimeError(f"load generator failed (exit {code})")
    with open(raw_path) as f:
        return json.load(f)


# ------------------------------------------------------------- metrics


def serve_end_to_end(raw, limit_ms):
    steps = raw["steps"]
    low = stats.step_latencies(steps[0])
    one = stats.step_latencies(raw["step_1t"])
    counts = [stats.step_counts(s) for s in steps + [raw["step_1t"]]]
    attempted = sum(c[0] for c in counts)
    failed = sum(c[1] for c in counts)
    wrong = sum(c[2] for c in counts)
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
        "lat_p50_ms": (stats.percentile(low, 50), len(low)),
        "lat_p90_ms": (stats.require_percentile(low, 90, "lowest rate"),
                       len(low)),
        "lat_p50_ms_1t": (stats.percentile(one, 50), len(one)),
        "max_rate_rps": (stats.max_rate(steps, limit_ms), len(steps)),
        "ok_ratio": (1.0 - failed / attempted, attempted),
        "peak_rss_mib": (raw["peak_rss_mib"], 1),
    }
    for s in steps:
        lat = stats.step_latencies(s)
        log(f"  rate {s['rate']:>8g}/s  n={len(lat):>6}  "
            f"p50={stats.percentile(lat, 50):9.3f} ms  "
            f"p99={stats.percentile(lat, 99):9.3f} ms  "
            f"backlog_grows={stats.backlog_grows(s)}  "
            f"passes={stats.rung_passes(s, limit_ms)}")
    return m, attempted, failed, wrong


def tower_end_to_end(raw):
    lat, one = raw["lat_ms"], raw["lat_ms_1t"]
    p50 = stats.percentile(lat, 50)
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
        "lat_p50_ms": (p50, len(lat)),
        "lat_p90_ms": (stats.require_percentile(lat, 90, "tower"), len(lat)),
        "lat_p50_ms_1t": (stats.percentile(one, 50), len(one)),
        # One closed-loop caller: towers completed per second at nproc.
        "max_rate_rps": (raw["towers_per_sample"] * 1000.0 / p50, len(lat)),
        "ok_ratio": (1.0 - failed / attempted, attempted),
        "peak_rss_mib": (raw["peak_rss_mib"], 1),
    }
    return m, attempted, failed, int(raw["wrong"])


def client_layers(step):
    """Client-side figures of one traced open-loop step."""
    reqs = [r for r in stats.step_requests(step) if r[1] >= 0]
    polls = sum(r[7] for r in reqs)
    return {
        "client.submit_ms": statistics.median(r[2] - r[1] for r in reqs),
        "client.await_ms": statistics.median(r[3] - r[2] for r in reqs),
        "client.polls_per_req": polls / len(reqs),
        "client.poll_useful_ratio": len(reqs) / polls,
    }, len(reqs)


def per_layer(raw, workload, trace_path):
    layers = dict(raw["layers"])
    spans = raw["spans"]
    if workload == "tower_n16k":
        client, n = client_layers(raw["steps"][0])
        plain, traced = raw["lat_ms"], raw["lat_ms_traced"]
        late = raw["gap_ms"]
        layers["pool.scaling_eff"] = (
            statistics.median(raw["lat_ms_1t"]) /
            (raw["nproc"] * statistics.median(plain)))
        roots = {"tower"}
    else:
        plain_step, traced_step = raw["steps"]
        client, n = client_layers(traced_step)
        plain = stats.step_latencies(plain_step)
        traced = stats.step_latencies(traced_step)
        late = stats.generator_late_ms(raw["steps"])
        roots = {"request"}
    layers.update(client)
    # Derived from outside timing: the await minus what the request's own
    # program costs to compute alone and its reply to encode and decode.
    # What remains is admission wait, queueing and poll granularity.
    layers["coalescer.wait_ms"] = (layers["client.await_ms"] -
                                   layers.pop("served.compute_ms") -
                                   layers.pop("wire.reply_codec_ms"))
    layers["gen.late_p99_ms"] = stats.percentile(late, 99)
    p50_plain = stats.percentile(plain, 50)
    layers["trace.overhead_pct"] = (
        100.0 * (stats.percentile(traced, 50) - p50_plain) / p50_plain)
    layers["unattributed_ms"] = stats.unattributed_ms(spans, roots)

    self_ms = stats.layer_self_ms(spans)
    log("  span self time (ms, summed over the run):")
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        log(f"    {name:<28} {ms:12.3f}")
    model = {k: layers.pop(k) for k in list(layers)
             if k.startswith("ntt.model_")}
    log(f"  ntt bytes model cross-check: {model}")
    if (model["ntt.model_stages_counted"] !=
            model["ntt.model_stages_expected"] or
            model["ntt.model_twiddle_bytes_table"] !=
            model["ntt.model_twiddle_bytes_expected"]):
        log("  WARNING: the NTT bytes model disagrees with the counters")
    stats.write_chrome_trace(trace_path, spans, {
        "workload": workload, "self_ms": self_ms,
        "unattributed_ms": layers["unattributed_ms"], "ntt_model": model})
    log(f"  trace written to {trace_path}")
    return {k: (v, n if k.startswith("client.") else 1)
            for k, v in layers.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec, limits = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload}; "
                         f"BENCHMARK.json has {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "hebench"))
    os.makedirs(build_dir, exist_ok=True)
    build(build_dir)
    raw = run_load(build_dir, args)

    if args.trace:
        trace_path = os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")
        measured = per_layer(raw, args.workload, trace_path)
        if args.workload == "tower_n16k":
            attempted, failed = int(raw["attempted"]), int(raw["failed"])
            wrong = int(raw["wrong"])
        else:
            counts = [stats.step_counts(s) for s in raw["steps"]]
            attempted, failed, wrong = (sum(c[i] for c in counts)
                                        for i in range(3))
    elif args.workload == "tower_n16k":
        measured, attempted, failed, wrong = tower_end_to_end(raw)
    else:
        measured, attempted, failed, wrong = serve_end_to_end(
            raw, limits[args.workload])

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {}
    for m in wanted:
        value, samples = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<30} {value:>16.6f} {m['unit']:<8} "
              f"samples={samples}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # any failure: no result line, non-zero exit
        log(f"hebench: {type(e).__name__}: {e}")
        sys.exit(1)
