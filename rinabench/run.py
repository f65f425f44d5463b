#!/usr/bin/env python3
"""Repository benchmark for the RINA simulator.

    python3 rinabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds rinabench/main.exe with dune
(release profile), then repeats one trial of the named workload with
the given seed, each trial in a fresh process, until S seconds have
been spent (at least MIN_TRIALS trials).  Every repeat simulates the
same inputs, so their simulated results must agree exactly: that and
the per-SDU checks inside each trial (exactly-once, in order, CRC
intact) decide "correct".

--trace 0 reports the end-to-end metrics: wall-clock medians over the
repeats (for slice percentiles, the median of each repeat's own
percentile) and the simulated results.  --trace 1 alternates untraced and traced repeats
of the same seed, requires identical simulated results from both,
reports the per-layer metrics (medians over traced repeats) and
writes the first traced repeat's span log to rinabench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; "attempted" counts
trials run and "failed" those that crashed or broke a check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, "_build")
EXE = os.path.join(BUILD_DIR, "default", "rinabench", "main.exe")
OUT = os.path.join(HERE, "out")
MIN_TRIALS = 3
TRIAL_TIMEOUT = 150

# name -> (unit, how a run summarises its repeats)
END_TO_END = {
    "setup_s": ("s", "median"),
    "sdu_per_s": ("1/s", "median"),
    "slice_ms_p50": ("ms", "slices"),
    "slice_ms_p99": ("ms", "slices"),
    "peak_heap_mb": ("MB", "median"),
    "sim_goodput_mbps": ("Mb/s", "sim"),
    "sim_latency_p50_ms": ("ms", "sim"),
    "sim_latency_p99_ms": ("ms", "sim"),
    "sim_fct_p99_ms": ("ms", "sim"),
    "sim_blackout_ms": ("ms", "sim"),
    "sim_delivered_ratio": ("ratio", "sim"),
}

# per-layer metric -> unit; medians over traced repeats, except those in
# FROM_UNTRACED, which describe the program rather than the tracer.  A
# layer that can be idle for a whole workload (carrier watchers, the
# up-front allocation phase) is reported as a share, so that no time
# metric reads a structural 0.0 on every run.
SPAN_LAYERS = ["ipcp.rx_dtp", "ipcp.rx_ack", "ipcp.rx_mgmt", "ipcp.carrier",
               "efcp.send", "link.tx", "app.rx"]
PER_LAYER = {}
for layer in SPAN_LAYERS:
    if layer == "ipcp.carrier":
        PER_LAYER[layer + "_self_share"] = "ratio"
    else:
        PER_LAYER[layer + "_self_ms"] = "ms"
    PER_LAYER[layer + "_count"] = "count"
PER_LAYER.update({
    "ipcp.rx_dtp_ns_per_frame": "ns",
    "efcp.send_ns_per_sdu": "ns",
    "engine.self_ms": "ms",
    "engine.events": "count",
    "engine.ns_per_event": "ns",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "efcp.pdus_sent": "count",
    "efcp.pdus_rtx": "count",
    "efcp.fast_rtx": "count",
    "efcp.rto_fired": "count",
    "efcp.useful_ratio": "ratio",
    "link.tx_frames": "count",
    "link.tx_bytes": "B",
    "link.drops": "count",
    "link.queue_max": "count",
    "rmt.relayed": "count",
    "rmt.queue_dropped": "count",
    "rmt.ecn_marked": "count",
    "rmt.queue_hwm": "count",
    "sdu_protection.seal_ns_per_B": "ns/B",
    "sdu_protection.est_ms": "ms",
    "pdu.encode_frame_ns": "ns",
    "pdu.decode_header_ns": "ns",
    "routing.spf_runs": "count",
    "routing.spf_runs_setup": "count",
    "routing.spf_us": "us",
    "routing.spf_est_ms": "ms",
    "routing.lsa_tx": "count",
    "routing.lsa_rx_new": "count",
    "riep.mgmt_tx": "count",
    "riep.mgmt_tx_setup": "count",
    "riep.mgmt_rx": "count",
    "ipcp.converge_ms": "ms",
    "ipcp.alloc_setup_share": "ratio",
    "ipcp.alloc_latency_p99_ms": "ms",
    "ipcp.alloc_failed": "count",
    "gc.alloc_B_per_sdu": "B",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "fail_ratio": "ratio",
})
FROM_UNTRACED = {"engine.ns_per_event", "gc.alloc_B_per_sdu",
                 "gc.minor_collections", "gc.major_collections"}


def fail(msg, code):
    print("rinabench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("run from the root of a full checkout (dune-project and lib/ "
             "are missing)", 3)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./rinabench/main.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 4)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed", 4)


def trial(workload, seed, traced, spans_file=None):
    """One trial in a fresh process; its record, or None if it broke."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans_file:
            cmd += ["--spans", spans_file]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=TRIAL_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("trial timed out", file=sys.stderr)
        return None
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return None
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        sys.stderr.write(r.stdout + r.stderr)
        return None


def ocaml_version():
    try:
        return subprocess.run(["ocamlopt", "-version"], capture_output=True,
                              text=True).stdout.strip() or "?"
    except OSError:
        return "?"


def percentile(values, p):
    """Linear interpolation between closest ranks (as Rina_util.Stats)."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def run_trials(args):
    """Repeat the trial until the time is spent; (records, failures)."""
    records, failures = [], []
    start = time.monotonic()
    spans_file = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans_file = os.path.join(
            OUT, "spans-%s-%d.tsv" % (args.workload, args.seed))
    n = 0
    while True:
        elapsed = time.monotonic() - start
        per = elapsed / n if n else 0.0
        if n >= MIN_TRIALS and elapsed + per > args.seconds:
            break
        if args.trace:
            plain = trial(args.workload, args.seed, False)
            traced = trial(args.workload, args.seed, True,
                           spans_file if n == 0 else None)
            rec = (plain, traced)
            broken = plain is None or traced is None
        else:
            plain = trial(args.workload, args.seed, False)
            rec = (plain, None)
            broken = plain is None
        n += 1
        if broken:
            failures.append("trial %d did not complete" % n)
            continue
        records.append(rec)
    return records, failures


def check(records, failures):
    """Hard correctness: per-SDU checks and identical simulated results."""
    problems = list(failures)
    digests = set()
    for plain, traced in records:
        for r in (plain, traced):
            if r is None:
                continue
            digests.add(r["digest"])
            for v in r["violations"]:
                problems.append("%s: %s" % ("traced" if r["trace"] else "untraced", v))
    if len(digests) > 1:
        problems.append("repeats of one seed (traced and untraced) gave "
                        "different simulated results: %s" % sorted(digests))
    return problems


def failed_trials(records, failures, problems):
    bad = sum(1 for rec in records
              if any(r is not None and r["violations"] for r in rec))
    n = len(failures) + bad
    return max(n, 1) if problems else n


def end_to_end(records):
    plains = [p for p, _ in records]
    out = {}
    for name, (unit, how) in END_TO_END.items():
        if how == "slices":
            q = 50 if name.endswith("p50") else 99
            v = statistics.median(percentile(p["slices_ms"], q) for p in plains)
            n = sum(len(p["slices_ms"]) for p in plains)
        elif how == "sim":
            v = plains[0]["e2e"][name]
            n = 1
        else:
            v = statistics.median(p["e2e"][name] for p in plains)
            n = len(plains)
            if name == "setup_s":
                n = int(sum(p["e2e"]["setup_repeats"] for p in plains))
        out[name] = (v, unit, n)
    return out


def per_layer(records):
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            vs = [t["e2e"]["traffic_s"] / p["e2e"]["traffic_s"] for p, t in records]
        elif name == "fail_ratio":
            vs = [records[0][0]["e2e"]["fail_ratio"]]
        elif name in FROM_UNTRACED:
            vs = [p["layer"][name] for p, _ in records]
        else:
            vs = [t["layer"][name] for _, t in records]
        out[name] = (statistics.median(vs), unit, len(vs))
    return out


def report_layers(records, layer):
    """Self time, count and ns/op per span layer, and the accounting check."""
    traced = [t for _, t in records]
    wall_ms = statistics.median(t["e2e"]["traffic_s"] for t in traced) * 1e3
    print("per-layer spans (median of %d traced repeats), traffic phase %.1f ms"
          % (len(traced), wall_ms))
    print("  %-16s %12s %10s %10s" % ("layer", "self ms", "count", "ns/op"))
    for l in SPAN_LAYERS:
        self_ms = statistics.median(t["layer"][l + "_self_ms"] for t in traced)
        count = layer[l + "_count"][0]
        print("  %-16s %12.2f %10.0f %10.0f"
              % (l, self_ms, count, self_ms * 1e6 / count if count else 0.0))
    print("  %-16s %12.2f" % ("engine (rest)", layer["engine.self_ms"][0]))
    acc = [sum(t["layer"][l + "_self_ms"] for l in SPAN_LAYERS)
           + t["layer"]["engine.self_ms"] for t in traced]
    share = statistics.median(a / (t["e2e"]["traffic_s"] * 1e3)
                              for a, t in zip(acc, traced))
    print("  spans + engine account for %.4f of traced traffic-phase wall time"
          % share)
    print("  trace.overhead_ratio %.3f" % layer["trace.overhead_ratio"][0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    records, failures = run_trials(args)
    if not records:
        fail("no trial completed: " + "; ".join(failures), 5)
    problems = check(records, failures)
    attempted = len(records) + len(failures)
    print("workload %s seed %d trace %d: %d repeats on %d cores, OCaml %s, "
          "dune --profile release, %s"
          % (args.workload, args.seed, args.trace, attempted, os.cpu_count(),
             ocaml_version(), platform.machine()))
    metrics = end_to_end(records) if not args.trace else per_layer(records)
    if args.trace:
        report_layers(records, metrics)
    print("  %-34s %16s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, (v, unit, n) in metrics.items():
        print("  %-34s %16.6g %-6s %d" % (name, v, unit, n))
    for p in problems:
        print("VIOLATION: " + p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_trials(records, failures, problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
