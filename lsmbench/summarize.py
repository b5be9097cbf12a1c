#!/usr/bin/env python3
"""Per-layer table for one traced lsmbench run.

Combines the lsmbench binary's measured-phase counter deltas, its span dump
(spans.tsv) and the engine's JSONL event trace (engine.jsonl) into one row
per per-layer metric: value, unit, and for ratios the numerator and base.
It also checks that every sampled op's Env children fit inside it and
reports the tracing overhead against an untraced run of the same seed.

    python3 lsmbench/summarize.py TRACED.json UNTRACED.json TRACE_DIR

run.py --trace 1 calls summarize() directly.
"""
import json
import os
import sys

from benchstats import percentile, ratio

# name -> (unit, better). The same names, units and directions are
# declared in BENCHMARK.json's per_layer list; test_benchstats.py keeps
# the two in step.
METRICS = {
    "server.req_us.p50": ("us", "lower"),
    "server.coalesce_ratio": ("ops/batch", "higher"),
    "server.bytes_per_req": ("B", "lower"),
    "server.request_errors": ("count", "lower"),
    "shard.get_us.p50": ("us", "lower"),
    "shard.get_self_us.p50": ("us", "lower"),
    "shard.op_imbalance": ("ratio", "lower"),
    "write.group_size_avg": ("batches", "higher"),
    "write.queue_wait_us_per_batch": ("us", "lower"),
    "write.wal_syncs": ("count", "lower"),
    "wal.append_count": ("count", "lower"),
    "wal.append_bytes": ("B", "lower"),
    "wal.append_busy_us": ("us", "lower"),
    "wal.sync_count": ("count", "lower"),
    "mem.hit_frac": ("frac", "higher"),
    "mem.switches": ("count", "lower"),
    "filter.probes_per_get": ("probes", "lower"),
    "filter.negative_frac": ("frac", "higher"),
    "filter.false_pos_frac": ("frac", "lower"),
    "table.blocks_per_get": ("blocks", "lower"),
    "cache.block_hit_frac": ("frac", "higher"),
    "cache.block_evictions": ("count", "lower"),
    "read.table_cache_hit_frac": ("frac", "higher"),
    "read.table_opens": ("count", "lower"),
    "env.sst_reads_per_get": ("reads", "lower"),
    "env.sst_read_busy_us": ("us", "lower"),
    "compaction.count": ("count", "lower"),
    "compaction.busy_us": ("us", "lower"),
    "compaction.flush_busy_us": ("us", "lower"),
    "compaction.bytes_written": ("B", "lower"),
    "env.sst_write_bytes": ("B", "lower"),
    "compaction.conflict_frac": ("frac", "lower"),
    "exec.stall_us": ("us", "lower"),
    "exec.slowdowns": ("count", "lower"),
    "exec.stops": ("count", "lower"),
    "exec.stall_l0_frac": ("frac", "lower"),
    "policy.levels": ("levels", "lower"),
    "policy.runs": ("runs", "lower"),
    "loadgen.late_us.p99": ("us", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# Totals over the measured phase. The table also shows them per measured
# op: workloads differ several-fold in throughput, so a layer's share of
# the work is easiest to compare per op.
TOTALS = ("server.request_errors", "write.wal_syncs", "wal.append_count",
          "wal.append_bytes", "wal.append_busy_us", "wal.sync_count",
          "mem.switches", "cache.block_evictions", "read.table_opens",
          "env.sst_read_busy_us", "compaction.count", "compaction.busy_us",
          "compaction.flush_busy_us", "compaction.bytes_written",
          "env.sst_write_bytes", "exec.stall_us", "exec.slowdowns",
          "exec.stops")


def read_spans(path):
    """Parses spans.tsv into {op_id: op} with each op's Env children."""
    ops = {}
    children = []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "op":
                ops[int(fields[1])] = {"kind": fields[2],
                                       "start": int(fields[3]),
                                       "end": int(fields[4]),
                                       "children": []}
            elif fields[0] == "io":
                children.append((int(fields[1]), fields[2], int(fields[3]),
                                 int(fields[4]), int(fields[5])))
    orphans = 0
    for parent, kind, start, end, nbytes in children:
        op = ops.get(parent)
        if op is None:
            orphans += 1
            continue
        op["children"].append((kind, start, end, nbytes))
    return ops, orphans


def check_spans(ops):
    """Ops whose children start before, end after, or sum past the op."""
    bad = 0
    for op in ops.values():
        child_ns = sum(end - start for _, start, end, _ in op["children"])
        inside = all(op["start"] <= start and end <= op["end"]
                     for _, start, end, _ in op["children"])
        if not inside or child_ns > op["end"] - op["start"]:
            bad += 1
    return bad


def span_table(ops):
    """Per op kind: sampled count, p50 duration, p50 self time, child share."""
    rows = {}
    for kind in sorted({op["kind"] for op in ops.values()}):
        durations, selfs = [], []
        child_total = span_total = 0
        io_counts = {}
        for op in ops.values():
            if op["kind"] != kind:
                continue
            d = op["end"] - op["start"]
            c = sum(end - start for _, start, end, _ in op["children"])
            durations.append(d / 1e3)
            selfs.append((d - c) / 1e3)
            span_total += d
            child_total += c
            for io_kind, _, _, _ in op["children"]:
                io_counts[io_kind] = io_counts.get(io_kind, 0) + 1
        rows[kind] = {"p50_us": percentile(durations, 50),
                      "self_p50_us": percentile(selfs, 50),
                      "env_share": ratio(child_total, span_total),
                      "io_calls": io_counts}
    return rows


def read_events(path, start_us, end_us):
    """Sums the measured phase's flush and compaction events."""
    out = {"compaction_install": 0, "compaction_us": 0, "flush_us": 0}
    if not os.path.exists(path):
        return out
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            if not start_us <= e["t_us"] <= end_us:
                continue
            if e["event"] == "compaction_install":
                out["compaction_install"] += 1
                out["compaction_us"] += e["b"]
            elif e["event"] == "flush_end":
                out["flush_us"] += e["b"]
    return out


def overhead(traced, untraced):
    """Tracing cost: lost throughput (closed loop) or extra CPU per op
    (open loop, whose throughput is fixed by the offered rate)."""
    if traced["config"]["loop"] == "open":
        t, u = traced["e2e"]["cpu_ns_per_op"], untraced["e2e"]["cpu_ns_per_op"]
        return ratio(t - u, u)
    t, u = traced["e2e"]["throughput_kops"], untraced["e2e"]["throughput_kops"]
    return ratio(u - t, u)


def summarize(traced, untraced, trace_dir):
    """Returns (rows, spans, problems, counters). rows maps each METRICS
    name to a ratio-style dict ({"value", "numerator", "base"}; base None
    for plain values); spans is span_table()'s; problems lists failed
    checks; counters are the binary's measured-phase deltas."""
    c = traced["layers"]
    server = traced["config"]["loop"] == "open"
    ops, orphans = read_spans(os.path.join(trace_dir, "spans.tsv"))
    events = read_events(os.path.join(trace_dir, "engine.jsonl"),
                         traced["phase_start_us"], traced["phase_end_us"])
    spans = span_table(ops)
    problems = []
    bad = check_spans(ops)
    if bad or orphans:
        problems.append("%d sampled ops have Env children outside or longer "
                        "than the op; %d children have no op" % (bad, orphans))
    if not ops:
        problems.append("no op spans were sampled")

    def plain(value):
        return {"value": value, "numerator": value, "base": None}

    get = spans.get("get")
    rows = {
        # Client-side request spans exist only when ops go over the wire;
        # embedded ops are ShardedDB spans.
        "server.req_us.p50": plain(get["p50_us"][0] if server and get else 0),
        "server.coalesce_ratio": ratio(c["server.coalesced_ops"],
                                       c["server.coalesced_batches"]),
        "server.bytes_per_req": ratio(c["server.bytes"], c["server.requests"]),
        "server.request_errors": plain(c["server.request_errors"]),
        "shard.get_us.p50": plain(get["p50_us"][0]
                                  if get and not server else 0),
        "shard.get_self_us.p50": plain(get["self_p50_us"][0]
                                       if get and not server else 0),
        "shard.op_imbalance": ratio(c["shard.ops_max"] * c["shard.count"],
                                    c["shard.ops_sum"]),
        "write.group_size_avg": ratio(c["write.batches_committed"],
                                      c["write.group_commits"]),
        "write.queue_wait_us_per_batch": ratio(c["write.queue_wait_us"],
                                               c["write.batches_committed"]),
        "write.wal_syncs": plain(c["write.wal_syncs"]),
        "wal.append_count": plain(c["wal.append_count"]),
        "wal.append_bytes": plain(c["wal.append_bytes"]),
        "wal.append_busy_us": plain(c["wal.append_busy_us"]),
        "wal.sync_count": plain(c["wal.sync_count"]),
        "mem.hit_frac": ratio(c["mem.memtable_hits"], c["mem.lookups"]),
        "mem.switches": plain(c["mem.switches"]),
        "filter.probes_per_get": ratio(c["filter.probes"], c["mem.lookups"]),
        "filter.negative_frac": ratio(c["filter.negatives"],
                                      c["filter.probes"]),
        "filter.false_pos_frac": ratio(
            c["filter.false_positives"],
            c["filter.negatives"] + c["filter.false_positives"]),
        "table.blocks_per_get": ratio(c["table.block_reads"],
                                      c["mem.lookups"]),
        "cache.block_hit_frac": ratio(
            c["cache.block_hits"],
            c["cache.block_hits"] + c["cache.block_misses"]),
        "cache.block_evictions": plain(c["cache.block_evictions"]),
        "read.table_cache_hit_frac": ratio(
            c["read.table_cache_hits"],
            c["read.table_cache_hits"] + c["read.table_cache_misses"]),
        "read.table_opens": plain(c["read.table_opens"]),
        "env.sst_reads_per_get": ratio(c["env.sst_reads_get"],
                                       c["engine.gets"]),
        "env.sst_read_busy_us": plain(c["env.sst_read_busy_us"]),
        "compaction.count": plain(events["compaction_install"]),
        "compaction.busy_us": plain(events["compaction_us"]),
        "compaction.flush_busy_us": plain(events["flush_us"]),
        "compaction.bytes_written": plain(c["compaction.bytes_written"]),
        "env.sst_write_bytes": plain(c["env.sst_write_bytes"]),
        "compaction.conflict_frac": ratio(c["compaction.conflicts"],
                                          c["compaction.compactions"]),
        "exec.stall_us": plain(c["exec.stall_us"]),
        "exec.slowdowns": plain(c["exec.slowdowns"]),
        "exec.stops": plain(c["exec.stops"]),
        "exec.stall_l0_frac": ratio(c["exec.stalls_l0"],
                                    c["exec.slowdowns"] + c["exec.stops"]),
        "policy.levels": plain(c["policy.levels"]),
        "policy.runs": plain(c["policy.runs"]),
        "loadgen.late_us.p99": plain(c["loadgen.late_us.p99"]),
        "trace.overhead_frac": overhead(traced, untraced),
    }
    return rows, spans, problems, c


def print_table(workload, rows, spans, counters, phase_ops,
                out=sys.stdout):
    out.write("per-layer table: %s (measured phase of the traced run, "
              "%d ops)\n" % (workload, phase_ops))
    out.write("%-32s %14s %-10s %12s  %s\n" % ("metric", "value", "unit",
                                               "per op", "numerator / base"))
    for name, (unit, _) in METRICS.items():
        r = rows[name]
        base = ("" if r["base"] is None else
                "%s / %s" % (_fmt(r["numerator"]), _fmt(r["base"])))
        per_op = (_fmt(ratio(r["value"], phase_ops)["value"])
                  if name in TOTALS else "")
        out.write("%-32s %14s %-10s %12s  %s\n" % (name, _fmt(r["value"]),
                                                   unit, per_op, base))
    out.write("sampled op spans (1 in N ops; Env children on the op's "
              "thread):\n")
    for kind, s in spans.items():
        out.write("  %-5s n=%-7d p50=%.2fus self_p50=%.2fus env_share=%.4f "
                  "(%s / %s ns) io=%s\n"
                  % (kind, s["p50_us"][1], s["p50_us"][0],
                     s["self_p50_us"][0], s["env_share"]["value"],
                     s["env_share"]["numerator"], s["env_share"]["base"],
                     json.dumps(s["io_calls"], sort_keys=True)))
    out.write("  maintenance root (no op open on the thread: flush and "
              "compaction threads, server workers): %d Env calls, %.0f us "
              "busy\n" % (counters["maintenance.io_calls"],
                          counters["maintenance.io_busy_us"]))


def _fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def main(argv):
    if len(argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        traced = json.load(f)
    with open(argv[2]) as f:
        untraced = json.load(f)
    rows, spans, problems, counters = summarize(traced, untraced, argv[3])
    print_table(traced["workload"], rows, spans, counters,
                traced["phase_ops"])
    for p in problems:
        print("CHECK FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
