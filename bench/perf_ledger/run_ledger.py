#!/usr/bin/env python3
"""Build and run the perf ledger; gate, summarize and compare its results.

Benchmark mode -- one workload, the result as the last line of stdout:

    run_ledger.py --workload NAME --seed N --seconds S --trace 0|1

  --trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
  per-layer ones (the run then records the ledger's spans to
  <build-dir>/traces/NAME.btrc).

Set mode -- every workload, one process each, then a table of every metric
by name with its unit; exits 1 when a correctness gate fails:

    run_ledger.py [--seed N] [--seconds S] [--quick] [--out LEDGER.json]
                  [--trace-dir DIR]

  --quick runs the short CI variant of each workload once (the smoke test);
  --trace-dir adds one traced rep per workload, writes DIR/NAME.btrc and
  prints each span's self time (span minus the time its children cover).

    run_ledger.py --compare A.json B.json

  applies the BENCHMARK.json bounds to two ledger files: counters must
  match exactly, end-to-end medians must stay within their bounds, and a
  metric whose quartile spread exceeds its bound is reported unresolved.

    run_ledger.py --write-expected

  re-records expected.json, the default-seed digests the gate compares.

The driver is built on first use into --build-dir (default
.bench_build/perf_ledger at the repository root).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1993


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    build_dir = Path(build_dir)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perf_ledger", "-j", "2"], stdout=sys.stderr, check=True)
    return build_dir / "perf_ledger"


def run_driver(binary, workload, seed, seconds, quick=False, trace_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=3 * seconds + 90)
    return json.loads(proc.stdout)


# --- gates and metrics ------------------------------------------------------

def expected_digest(raw):
    """The baselined digest for this run, or None off the default seed."""
    if raw["seed"] != DEFAULT_SEED:
        return None
    with open(EXPECTED) as f:
        expected = json.load(f)
    return expected["quick" if raw["quick"] else "full"].get(raw["workload"])


def verdict(raw):
    """(attempted, failed, failures) with the expected-digest gate added."""
    failures = list(raw["failures"])
    failed = raw["failed"]
    reps = raw["reps"]
    want = expected_digest(raw)
    if reps and want is not None and reps[0]["digest"] != want:
        failures.append(f"digest {reps[0]['digest']} != expected {want}")
        failed = min(raw["attempted"], failed + len(reps))
    return raw["attempted"], failed, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def self_times(btrc):
    """Per span name: count, total and self seconds (span minus the part of
    it that its child spans on the same thread cover)."""
    sys.path.insert(0, str(ROOT / "tools"))
    from trace2json import parse
    names, records = parse(btrc)
    spans = sorted(((tid, ts, ts + dur, names[nid])
                    for ts, dur, nid, tid, rtype in records if rtype == 0),
                   key=lambda s: (s[0], s[1], -s[2]))
    table = {}  # name -> [count, total ns, self ns]
    stack = []  # open spans of the current thread, innermost last

    def close(entry):
        row = table.setdefault(entry["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += entry["dur"]
        row[2] += entry["dur"] - entry["child"]
    for tid, start, end, name in spans:
        while stack and (stack[-1]["tid"] != tid or stack[-1]["end"] <= start):
            close(stack.pop())
        if stack:
            stack[-1]["child"] += end - start
        stack.append({"tid": tid, "end": end, "name": name,
                      "dur": end - start, "child": 0})
    while stack:
        close(stack.pop())
    roots = {"ledger.rep", "scenario.setup"}
    root_ns = sum(row[1] for name, row in table.items() if name in roots)
    return ({name: {"count": c, "total_s": t * 1e-9, "self_s": s * 1e-9}
             for name, (c, t, s) in table.items()},
            len(records), root_ns)


def metrics(raw, bench, btrc=None):
    """End-to-end and per-layer metric values of one driver run, the
    per-rep layer split measured from outside, and the trace's span table.
    A counter the workload does not produce reads 0."""
    reps = raw["reps"]
    def med(key):
        return statistics.median(r[key] for r in reps) if reps else 0.0
    c = raw["counters"]
    setup_s = statistics.median(raw["setup_s"]) if raw["setup_s"] else 0.0
    events = c.get("sim.events", 0)
    deliveries = c.get("sim.hop_deliveries", 0)
    sent = c.get("probe.sent", 0)
    flows = c.get("scenario.flows", 0)
    sim_run_s = med("call_s") - setup_s
    report_s = med("report_s")
    ref = raw["reference"]
    e2e = {"run_s": med("run_s"), "cpu_s": med("cpu_s"), "setup_s": setup_s,
           "peak_rss_mb": raw["peak_rss_mb"]}
    layer = {m["name"]: c.get(m["name"], 0) for m in bench["per_layer"]
             if not m["name"].startswith("trace.")}
    layer.update({
        "sim.events_per_delivery": events / deliveries if deliveries else 0,
        "sim.run_s": sim_run_s,
        "sim.ns_per_event": sim_run_s / events * 1e9 if events else 0,
        "scenario.setup_ns_per_flow": setup_s / flows * 1e9 if flows else 0,
        "analysis.report_s": report_s,
        "analysis.report_ns_per_probe": report_s / sent * 1e9 if sent else 0,
        "obs.export_s": med("obs_s"),
        "pdes.cpu_per_wall": (statistics.median(r["cpu_s"] / r["run_s"]
                                                for r in reps) if reps else 0),
        "pdes.run_ratio": (sim_run_s / (ref["call_s"] - setup_s)
                           if ref else 0),
        "pdes.seq_mismatch": 0 if ref is None or ref["match"] else 1,
    })
    # Adds up to run_s: set-up is charged to scenario and taken out of the
    # scenario calls; what no call covers is the ledger's own work.
    split = {"scenario": setup_s, "sim": sim_run_s, "analysis": report_s,
             "obs": layer["obs.export_s"],
             "ledger": statistics.median(
                 r["run_s"] - r["call_s"] - r["report_s"] - r["obs_s"]
                 for r in reps) if reps else 0.0}
    trace = None
    if btrc:
        spans, records, root_ns = self_times(btrc)
        rep = spans.get("ledger.rep", {"total_s": 0.0, "self_s": 0.0})
        layer["trace.unattributed_frac"] = (
            rep["self_s"] / rep["total_s"] if rep["total_s"] else 0)
        layer["trace.overhead_frac"] = (
            raw["span_ns"] * records / root_ns if root_ns else 0)
        trace = {"file": str(btrc), "records": records, "spans": spans}
    return e2e, layer, split, trace


# --- benchmark mode ---------------------------------------------------------

def benchmark_mode(args, bench):
    binary = build(args.build_dir)
    btrc = None
    if args.trace:
        btrc = Path(args.build_dir) / "traces" / f"{args.workload}.btrc"
        btrc.parent.mkdir(parents=True, exist_ok=True)
    raw = run_driver(binary, args.workload, args.seed, args.seconds,
                     trace_out=btrc)
    attempted, failed, failures = verdict(raw)
    for failure in failures:
        log(f"{args.workload}: FAILED {failure}")
    e2e, layer, _, _ = metrics(raw, bench, btrc)
    values = layer if args.trace else e2e
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {name["name"]: {"value": values[name["name"]], "unit": name["unit"]}
           for name in wanted}
    print(json.dumps({"correct": failed == 0 and not failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


# --- set mode ---------------------------------------------------------------

def git(*argv):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
        return proc.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def manifest(build_info, args, per_workload):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "git_revision": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "build": build_info,
        "host": {"uname": " ".join(platform.uname()), "cpu_model": cpu,
                 "nproc": os.cpu_count()},
        "run": {"seed": args.seed, "seconds": args.seconds,
                "quick": args.quick, "workloads": per_workload},
    }


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def set_mode(args, bench):
    binary = build(args.build_dir)
    names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace_dir:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    workloads, runs, per_workload, all_ok, build_info = {}, [], {}, True, None
    for name in names:
        raw = run_driver(binary, name, args.seed, args.seconds, args.quick)
        build_info = raw["build"]
        attempted, failed, failures = verdict(raw)
        e2e, layer, split, _ = metrics(raw, bench)
        trace = None
        if args.trace_dir:
            btrc = Path(args.trace_dir) / f"{name}.btrc"
            traced = run_driver(binary, name, args.seed, 0, args.quick, btrc)
            _, traced_layer, _, trace = metrics(traced, bench, btrc)
            for key in ("trace.overhead_frac", "trace.unattributed_frac"):
                layer[key] = traced_layer[key]
        summary = {}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            values = ([r[key] for r in raw["reps"]] if key in ("run_s", "cpu_s")
                      else raw["setup_s"] if key == "setup_s" else [e2e[key]])
            q1, q3 = quartiles(values) if values else (0.0, 0.0)
            summary[key] = {"median": e2e[key], "q1": q1, "q3": q3,
                            "n": len(values), "unit": metric["unit"],
                            "values": values}
        missing = [m["name"] for m in bench["per_layer"]
                   if not finite(layer.get(m["name"]))
                   and not (m["name"].startswith("trace.")
                            and not args.trace_dir)]
        missing += [k for k, v in summary.items() if not finite(v["median"])]
        if missing:
            failures.append("missing or non-finite metrics: " +
                            ", ".join(missing))
        ok = failed == 0 and not failures
        all_ok &= ok
        per_workload[name] = {"reps": len(raw["reps"]),
                              "setups": len(raw["setup_s"]),
                              "threads": raw["threads"]}
        workloads[name] = {
            "seed": raw["seed"], "quick": raw["quick"],
            "digest": raw["reps"][0]["digest"] if raw["reps"] else None,
            "correct": ok, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "failures": failures,
            "end_to_end": summary, "per_layer": layer, "layer_split_s": split,
            "trace": trace}
        runs.append({"label": name, "metrics": {
            **{k: v["median"] for k, v in summary.items()}, **layer}})
        print_workload(name, workloads[name], units)
    info = manifest(build_info, args, per_workload)
    valid = (build_info["build_type"] != "Debug"
             and not build_info["sim_audit_checks"])
    ledger = {"manifest": info, "valid": valid, "workloads": workloads,
              "runs": runs}
    if not valid:
        print("valid: false (Debug or audit build: timings are not "
              "comparable)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(ledger, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


def print_workload(name, result, units):
    print(f"\n== {name}  seed {result['seed']}  "
          f"{'correct' if result['correct'] else 'FAILED'}  "
          f"failed_frac {result['failed_frac']:.3g}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for key, m in result["end_to_end"].items():
        print(f"   {key:<30} {m['median']:>14.6g} {m['unit']:<6} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    for key, value in result["per_layer"].items():
        print(f"   {key:<30} {value:>14.6g} {units.get(key, '')}")
    split = result["layer_split_s"]
    total = sum(split.values()) or 1.0
    print("   per-rep time by layer, measured from outside:")
    for layer, secs in split.items():
        print(f"     {layer:<10} {secs:>10.4f} s  {100 * secs / total:5.1f}%")
    if result["trace"]:
        print(f"   traced rep, self time by span ({result['trace']['file']}):")
        for span, row in sorted(result["trace"]["spans"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"     {span:<24} {row['self_s']:>10.4f} s  "
                  f"(total {row['total_s']:.4f} s, {row['count']} spans)")


# --- compare mode -----------------------------------------------------------

def compare_mode(path_a, path_b, bench):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    bad = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from {path_b}")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}")
        if wa["seed"] != wb["seed"] or wa["quick"] != wb["quick"]:
            print("   different seed or mode: counters not comparable")
        else:
            for key in counters:
                va, vb = wa["per_layer"].get(key), wb["per_layer"].get(key)
                if va != vb:
                    print(f"   COUNTER {key}: {va} -> {vb}")
                    bad += 1
            if wa["digest"] != wb["digest"]:
                print(f"   DIGEST {wa['digest']} -> {wb['digest']}")
                bad += 1
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            ma, mb = wa["end_to_end"][key], wb["end_to_end"][key]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (mb["median"] - ma["median"]) / ma["median"]
            spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            # Inside the noise a change is unresolved, not unchanged, unless
            # every run of B reads better than every run of A.
            b_always_better = (max(sign * v for v in mb["values"])
                               < min(sign * v for v in ma["values"]))
            if spread > bound and not b_always_better:
                state = "unresolved"
            elif worse > bound:
                state = "REGRESSION"
                bad += 1
            else:
                state = "ok"
            print(f"   {key:<12} {ma['median']:>12.6g} -> {mb['median']:<12.6g}"
                  f" {metric['unit']:<4} {100 * worse:+6.1f}% worse"
                  f" (bound {100 * bound:.0f}%, spread {100 * spread:.1f}%)"
                  f"  {state}")
    print("compare: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


# --- expected digests -------------------------------------------------------

def write_expected(args, bench):
    binary = build(args.build_dir)
    expected = {"seed": DEFAULT_SEED, "full": {}, "quick": {}}
    for mode in ("full", "quick"):
        for w in bench["workloads"]:
            raw = run_driver(binary, w["name"], DEFAULT_SEED, 0,
                             quick=mode == "quick")
            if raw["failures"]:
                log(f"{w['name']} ({mode}): {raw['failures']}")
                return 1
            expected[mode][w["name"]] = raw["reps"][0]["digest"]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--trace-dir")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--build-dir",
                        default=str(ROOT / ".bench_build" / "perf_ledger"))
    args = parser.parse_args(argv[1:])
    if args.quick:
        args.seconds = 0.0
    bench = load_benchmark()
    if args.compare:
        return compare_mode(*args.compare, bench)
    if args.write_expected:
        return write_expected(args, bench)
    if args.workload:
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            parser.error(f"unknown workload {args.workload}")
        return benchmark_mode(args, bench)
    return set_mode(args, bench)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"run_ledger: {err}")
        sys.exit(1)
