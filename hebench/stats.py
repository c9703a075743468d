"""Statistics of the hebench benchmark.

Everything run.py reports is derived here from the raw measurements the
load generator (load.cpp) writes: percentiles under the ten-samples-
beyond rule, the open-loop step rules behind max_rate_rps, and the
attribution of span time to layers. test_stats.py checks these rules.
"""

import json
import math
import statistics

# Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

INF = float("inf")


def nearest_rank(n, q):
    """1-based rank of the nearest-rank q-th percentile of n samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    all samples at or below it. Infinite samples (failed or never sent
    requests) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - nearest_rank(n, q)


def tail_percentile(n, min_beyond=MIN_BEYOND):
    """Highest reportable percentile of n samples: the highest of
    PERCENTILES that has at least min_beyond samples beyond it, or None
    when not even the median has."""
    best = None
    for q in PERCENTILES:
        if samples_beyond(n, q) >= min_beyond:
            best = q
    return best


def require_percentile(values, q, what):
    """percentile(values, q), refusing a percentile the sample count
    cannot support."""
    supported = tail_percentile(len(values))
    if supported is None or supported < q:
        raise ValueError(
            f"{what}: p{q:g} needs {MIN_BEYOND} samples beyond it, "
            f"{len(values)} samples give only p{supported}")
    return percentile(values, q)


# ------------------------------------------------------------ open loop


def step_requests(step):
    """Per-request tuples (due, sent, submitted, done, ok, wrong, idle,
    polls) of one open-loop step; times in ms from the step's start,
    sent == -1 for a request the generator never sent."""
    return list(zip(step["due_ms"], step["sent_ms"], step["submitted_ms"],
                    step["done_ms"], step["ok"], step["wrong"],
                    step["idle"], step["polls"]))


def step_latencies(step):
    """Latency of every request offered in the step, timed from when it
    was due. A request that failed or was never sent missed every
    limit, so it counts as infinitely late."""
    out = []
    for due, sent, _, done, ok, _, _, _ in step_requests(step):
        out.append(done - due if sent >= 0 and ok else INF)
    return out


def step_counts(step):
    """(attempted, failed, wrong) of one step: attempted counts sent
    requests; failed counts error replies and wrong outputs; wrong only
    the outputs that decrypted to the wrong plaintext."""
    attempted = failed = wrong = 0
    for _, sent, _, _, ok, bad, _, _ in step_requests(step):
        if sent < 0:
            continue
        attempted += 1
        failed += 0 if ok else 1
        wrong += 1 if bad else 0
    return attempted, failed, wrong


def backlog_at(step, t_ms):
    """Requests due by t_ms that had not completed by t_ms."""
    due_count = done_count = 0
    for due, sent, _, done, _, _, _, _ in step_requests(step):
        if due <= t_ms:
            due_count += 1
        if sent >= 0 and done <= t_ms:
            done_count += 1
    return due_count - done_count


def backlog_grows(step):
    """The backlog rule: over the second half of the step's send window
    the backlog grew by more than 2 per connection and by more than a
    tenth of the requests offered in that half. A system keeping up
    holds a roughly constant backlog; an overloaded one accumulates
    (offered - served) requests."""
    window = step["seconds"] * 1000.0
    mid = window / 2.0
    offered = sum(1 for due in step["due_ms"] if mid < due <= window)
    growth = backlog_at(step, window) - backlog_at(step, mid)
    return growth > max(2 * step["conns"], 0.1 * offered)


def rung_passes(step, limit_ms):
    """A ladder rate is met when its p99 latency is within the limit,
    no request failed, and the backlog did not grow."""
    lat = step_latencies(step)
    _, failed, _ = step_counts(step)
    return (bool(lat) and percentile(lat, 99.0) <= limit_ms
            and failed == 0 and not backlog_grows(step))


def achieved_rate(step):
    """Requests per second the step completed correctly: the count over
    the span from the first due time to the last completion."""
    done = [d for _, sent, _, d, ok, _, _, _ in step_requests(step)
            if sent >= 0 and ok]
    if not done:
        return 0.0
    return len(done) * 1000.0 / (max(done) - min(step["due_ms"]))


def max_rate(steps, limit_ms):
    """The step rule: the highest ladder rate such that it and every
    lower rate pass (the ladder ascends; the first failing rate ends
    it), reported as the rate that step achieved, so the figure is
    measured rather than the ladder's constant. 0 when even the lowest
    rate fails."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s["rate"]):
        if not rung_passes(step, limit_ms):
            break
        best = achieved_rate(step)
    return best


def generator_late_ms(steps):
    """How late the generator itself sent requests: send time minus due
    time, over requests it had been idle waiting for (a request sent
    late because its connection was still busy is backlog, not
    generator lateness)."""
    return [sent - due for s in steps
            for due, sent, _, _, _, _, idle, _ in step_requests(s)
            if idle and sent >= 0]


# ---------------------------------------------------------- attribution

# A span record from load.cpp: [name, start_ns, end_ns, id, parent,
# request, thread].
NAME, START, END, ID, PARENT, REQUEST, THREAD = range(7)


def covered_ns(start, end, intervals):
    """Length of the union of intervals clipped to [start, end]."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times_ns(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover. Returns {span id: self ns}."""
    children = {}
    for sp in spans:
        children.setdefault(sp[PARENT], []).append((sp[START], sp[END]))
    return {sp[ID]: (sp[END] - sp[START]) -
            covered_ns(sp[START], sp[END], children.get(sp[ID], []))
            for sp in spans}


def layer_self_ms(spans):
    """Total self time per span name, in ms."""
    selfs = self_times_ns(spans)
    out = {}
    for sp in spans:
        out[sp[NAME]] = out.get(sp[NAME], 0.0) + selfs[sp[ID]] * 1e-6
    return out


def unattributed_ms(spans, roots):
    """Median self time of the root spans named in roots: the part of
    each request (or tower) no layer span accounts for."""
    selfs = self_times_ns(spans)
    values = [selfs[sp[ID]] * 1e-6 for sp in spans
              if sp[NAME] in roots and sp[PARENT] == 0]
    if not values:
        raise ValueError(f"no root spans named {sorted(roots)}")
    return statistics.median(values)


def write_chrome_trace(path, spans, extra):
    """Spans as Chrome trace-event JSON (complete events, microseconds),
    with the per-layer attribution in otherData."""
    if spans:
        t0 = min(sp[START] for sp in spans)
    events = [{
        "name": sp[NAME], "ph": "X", "pid": 1, "tid": sp[THREAD],
        "ts": (sp[START] - t0) / 1000.0,
        "dur": (sp[END] - sp[START]) / 1000.0,
        "args": {"id": sp[ID], "parent": sp[PARENT],
                 "request": sp[REQUEST]},
    } for sp in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": extra}, f)
