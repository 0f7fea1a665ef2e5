#!/usr/bin/env python3
"""memdis benchmark: host time of the simulator on four named workloads.

    python3 perfbench/run.py --workload fig10-loi --seed 42 --seconds 40 --trace 0

Run from anywhere inside a memdis checkout. The first run builds the driver
(perfbench/CMakeLists.txt) and the simulator library into .bench_build/
(or $CARGO_TARGET_DIR when set, relative to the checkout root). Each sample
is a fresh driver process that runs a fixed sub-grid of the workload with
default execution options and writes its artifacts; samples repeat for
--seconds and every timing is the median over them. The outputs are then
checked for correctness. --trace 1 alternates untraced and traced samples
and reports the per-layer metrics instead of the end-to-end ones.
README.md in this directory describes the workloads and metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Every line before it is for people.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 42  # the sweep engine's default base_seed, which the goldens use
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2
SETUP_LAUNCHES = 20  # extra set-up-only processes per untraced run
SAMPLE_TIMEOUT_S = 150

# Artifact stem each workload's samples write, and what the default-seed
# artifacts are compared with: the committed goldens (rows matched by grid
# coordinates, since a sample runs a sub-grid) or digests.json.
WORKLOADS = {
    "fig06-scaling": {"stem": "fig06", "reference": "golden"},
    "fig10-loi": {"stem": "fig10", "reference": "digest"},
    "staged-migration": {"stem": "ext-staged-migration", "reference": "golden"},
    "fleet-rack": {"stem": "fleet", "reference": "digest"},
}

# Metric names and units: BENCHMARK.json at the checkout root is the one list.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ---- build ---------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build_driver():
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=840)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


# ---- processes -----------------------------------------------------------------

def run_process(cmd, log_dir):
    """Runs `cmd` to completion. Returns its spawn stamp (CLOCK_MONOTONIC ns,
    the clock the driver stamps with) and its last stdout line as JSON."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=out, stderr=err,
                              timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text()[-4000:])
        raise BenchError(f"exit {proc.returncode}: {' '.join(map(str, cmd))}")
    lines = out_path.read_text().strip().splitlines()
    if not lines:
        raise BenchError(f"no output: {' '.join(map(str, cmd))}")
    return spawn_ns, json.loads(lines[-1])


def run_sample(driver, workload, seed, sample_dir, traced):
    sample_dir.mkdir(parents=True)
    cmd = [driver, "sample", workload, seed, sample_dir] + (["--trace"] if traced else [])
    spawn_ns, out = run_process(cmd, sample_dir)
    return {
        "traced": traced,
        "dir": sample_dir,
        "out": out,
        "wall_s": (out["t_done_ns"] - spawn_ns) / 1e9,
        "setup_s": (out["t_first_ns"] - spawn_ns) / 1e9,
        "rss_mb": out["peak_rss_kib"] / 1024.0,
    }


def setup_launches(driver, workload, seed, run_dir):
    """Set-up times of processes that stop where the first grid point would
    start: set-up is a few milliseconds, so one reading per sample is too
    few for a steady median."""
    times = []
    for i in range(SETUP_LAUNCHES):
        launch_dir = run_dir / f"setup{i}"
        launch_dir.mkdir(parents=True)
        spawn_ns, out = run_process(
            [driver, "sample", workload, seed, launch_dir, "--setup-only"], launch_dir)
        times.append((out["t_first_ns"] - spawn_ns) / 1e9)
    return times


def take_samples(driver, workload, seed, seconds, trace, run_dir):
    """Fresh-process samples for `seconds`: untraced only, or (trace) untraced
    and traced alternately. Stops before a sample would overrun, once the
    minimum counts are met."""
    samples = []
    start = time.monotonic()
    while True:
        untraced = sum(not s["traced"] for s in samples)
        traced_n = len(samples) - untraced
        traced = bool(trace) and traced_n < untraced
        t0 = time.monotonic()
        samples.append(run_sample(driver, workload, seed, run_dir / f"sample{len(samples)}",
                                  traced))
        read_artifacts(workload, samples[-1])
        last = time.monotonic() - t0
        untraced = sum(not s["traced"] for s in samples)
        enough = untraced >= (1 if trace else MIN_SAMPLES) and (
            not trace or len(samples) - untraced >= MIN_TRACED_SAMPLES)
        if enough and time.monotonic() - start + last > seconds:
            return samples


# ---- correctness ---------------------------------------------------------------

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


JSON_ROW = re.compile(r'^\s*\{"index": \d+, ')


def sweep_rows(csv_path, json_path):
    """Splits a sweep's artifacts into the frame (CSV header and JSON lines
    outside the rows) and one (csv line, json line) pair per grid point."""
    csv_lines = Path(csv_path).read_text().splitlines()
    json_lines = Path(json_path).read_text().splitlines()
    json_rows = [line.rstrip(",") for line in json_lines if JSON_ROW.match(line)]
    frame = (csv_lines[0], tuple(line for line in json_lines if not JSON_ROW.match(line)))
    return frame, list(zip(csv_lines[1:], json_rows))


def without_index(row):
    """A row's content minus its grid index, which differs between the full
    scenario grid and a sample's sub-grid."""
    csv_row, json_row = row
    return csv_row.split(",", 1)[1], JSON_ROW.sub("{", json_row)


def golden_rows(stem):
    golden = ROOT / "tests" / "golden"
    frame, rows = sweep_rows(golden / f"{stem}.csv", golden / f"{stem}.json")
    return frame, {without_index(r) for r in rows}


def recorded_digests(workload):
    return json.loads((BENCH_DIR / "digests.json").read_text())[workload]


def read_artifacts(workload, sample):
    """Keeps what the checks need of a sample's artifacts (digests, and the
    rows of a sweep) and deletes the files, so no run piles up dirty pages
    for the kernel to write back while later samples are timed."""
    paths = sample["out"]["artifacts"]
    sample["digests"] = {Path(p).name: sha256(p) for p in paths}
    sample["rows"] = None if workload == "fleet-rack" else sweep_rows(*paths)
    sample["artifact_mb"] = sum(os.path.getsize(p) for p in paths) / 1e6
    for p in paths:
        os.remove(p)


def check_samples(workload, seed, samples, verified):
    """Per grid point (or per fleet run) of every sample: does its output
    match the first sample's byte for byte, the reference at the default
    seed, and its workload's self-verification? Returns (attempted, failed)."""
    spec = WORKLOADS[workload]
    at_default = seed == DEFAULT_SEED
    golden = golden_rows(spec["stem"]) if at_default and spec["reference"] == "golden" else None
    attempted = failed = 0
    ref = None
    for sample in samples:
        digests = sample["digests"]
        ok = [bool(v) for v in sample["out"].get("verified", verified)]
        if len(ok) != sample["out"]["points"]:
            ok = [False] * sample["out"]["points"]
        if not sample["out"].get("accesses_match", True):
            ok = [False] * len(ok)
        if at_default and spec["reference"] == "digest" and digests != recorded_digests(workload):
            ok = [False] * len(ok)
        if workload == "fleet-rack":
            ref = ref or digests
            ok = [ok[0] and digests == ref]
        else:
            frame, rows = sample["rows"]
            ref = ref or (frame, rows)
            if frame != ref[0] or len(rows) != len(ok) or len(ref[1]) != len(ok):
                ok = [False] * len(ok)
            else:
                ok = [good and row == ref_row for good, row, ref_row in zip(ok, rows, ref[1])]
                if golden:
                    ok = [good and frame == golden[0] and without_index(row) in golden[1]
                          for good, row in zip(ok, rows)]
        attempted += len(ok)
        failed += ok.count(False)
    return attempted, failed


def check_counts(samples):
    """Determinism self-test: every traced sample's layer counts are equal."""
    counts = [s["out"]["counts"] for s in samples if s["traced"]]
    return all(c == counts[0] for c in counts)


# ---- metrics -------------------------------------------------------------------

def spread(values):
    """(median, p25, p75) — quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def span_totals(spans_path):
    """Total and self time per span name, plus each core.point duration."""
    spans = json.loads(Path(spans_path).read_text())
    durs = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, durs):
        if s["parent"] >= 0:
            children[s["parent"]] += d
    total, self_time, points = {}, {}, []
    for s, d, c in zip(spans, durs, children):
        total[s["name"]] = total.get(s["name"], 0.0) + d
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + d - c
        if s["name"] == "core.point":
            points.append(d)
    return total, self_time, points


def ratio(num, den):
    return num / den if den else 0.0


def layer_values(sample):
    """Per-layer metrics of one traced sample."""
    total, self_time, points = span_totals(sample["dir"] / "spans.json")
    c = sample["out"]["counts"]
    get = lambda name: c.get(name, 0.0)  # noqa: E731
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    accesses = get("cachesim.accesses")
    replay_s = t("sim.replay")
    write_s = t("common.artifact_write")
    return {
        "core.point_s": statistics.median(points) if points else 0.0,
        "core.point_max_s": max(points) if points else 0.0,
        "workloads.host_s": max(t("core.point") - replay_s, 0.0) if points else 0.0,
        "sim.replay_s": replay_s,
        "sim.ns_per_access": ratio(replay_s * 1e9, accesses),
        "sim.epochs": get("sim.epochs"),
        "sim.run.self_s": self_time.get("sim.run", 0.0),
        "cachesim.accesses": accesses,
        "cachesim.l1_hit_ratio": ratio(get("cachesim.l1_hits"), accesses),
        "cachesim.l2_hit_ratio": ratio(get("cachesim.l2_hits"),
                                       accesses - get("cachesim.l1_hits")),
        "cachesim.llc_misses": get("cachesim.llc_misses"),
        "cachesim.l2_lines_in": get("cachesim.l2_lines_in"),
        "cachesim.pf_fills": get("cachesim.pf_fills"),
        "cachesim.pf_useful_ratio": ratio(get("cachesim.pf_hits"), get("cachesim.pf_fills")),
        "cachesim.pf_useless": get("cachesim.pf_useless"),
        "memsim.dram_lines.node": get("memsim.dram_lines.node"),
        "memsim.dram_lines.fabric": get("memsim.dram_lines.fabric"),
        "memsim.remote_access_ratio": ratio(
            get("memsim.dram_bytes.fabric"),
            get("memsim.dram_bytes.node") + get("memsim.dram_bytes.fabric")),
        "memsim.pages_migrated": get("memsim.pages_migrated"),
        "core.reprice.captures": get("core.reprice.captures"),
        "core.reprice.reprices": get("core.reprice.reprices"),
        "core.reprice.ratio": ratio(get("core.reprice.reprices"),
                                    get("core.reprice.captures") + get("core.reprice.reprices")),
        "core.reprice.cache_entries": get("core.reprice.cache_entries"),
        "core.reprice.price_s": t("core.reprice.price"),
        "core.migration.scans": get("core.migration.scans"),
        "core.migration.deferred_moves": get("core.migration.deferred_moves"),
        "core.migration.scan_s": t("core.migration.scan"),
        "fleet.expand_s": t("fleet.expand"),
        "fleet.run_s": t("fleet.run"),
        "fleet.steps": get("fleet.steps"),
        "fleet.completed": get("fleet.completed"),
        "fleet.rejected": get("fleet.rejected"),
        "fleet.migrations": get("fleet.migrations"),
        "common.artifact_write_s": write_s,
        "common.artifact_mb": sample["artifact_mb"],
        "common.write_mb_per_s": ratio(sample["artifact_mb"], write_s),
        "driver.self_s": self_time.get("driver", 0.0),
    }


def save_spans(args, host, samples):
    """Keeps the traced samples' spans after the run directory is removed."""
    path = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    traced = [{"wall_s": s["wall_s"], "spans": json.loads((s["dir"] / "spans.json").read_text())}
              for s in samples if s["traced"]]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "host": host,
                                "samples": traced}) + "\n")
    return path


def end_to_end(samples, setup_times, work):
    plain = [s for s in samples if not s["traced"]]
    return {
        "wall_s": [s["wall_s"] for s in plain],
        "setup_s": [s["setup_s"] for s in plain] + setup_times,
        "work_per_s": [work / s["wall_s"] for s in plain],
        "peak_rss_mb": [s["rss_mb"] for s in plain],
    }


def print_metric(name, values, unit):
    med, p25, p75 = spread(values)
    print(f"  {name:32s} {med:14.6g} {unit:8s} (p25 {p25:.6g}, p75 {p75:.6g}, n={len(values)})")


# ---- host fingerprint ----------------------------------------------------------

def source_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the sources by content instead.
    h = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / base
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "source-sha256:" + h.hexdigest()[:16]


def host_fingerprint(driver):
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    _, build = run_process([driver, "host"], build_dir())
    return {"cpu": cpu, "simd": build["simd"], "nproc": os.cpu_count(),
            "compiler": build["compiler"], "build_type": build["build_type"],
            "revision": source_revision()}


# ---- main ----------------------------------------------------------------------

def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run(args):
    for needed in ("CMakeLists.txt", "src", "tests/golden"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} is missing: run inside a memdis checkout")
    driver = build_driver()
    host = host_fingerprint(driver)
    run_dir = build_dir() / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times = [] if args.trace else setup_launches(driver, args.workload, args.seed,
                                                           run_dir)
        samples = take_samples(driver, args.workload, args.seed, args.seconds, args.trace,
                               run_dir)
        fleet = args.workload == "fleet-rack"
        # Self-verification and the exact access count of the sub-grid come
        # from the traced samples' record pass, or else from a verify pass.
        verified = []
        if fleet:
            work = samples[0]["out"]["arrivals"]
        elif args.trace:
            first = next(s["out"] for s in samples if s["traced"])
            verified, work = first["verified"], first["counts"]["cachesim.accesses"]
        else:
            _, verify = run_process([driver, "verify", args.workload, args.seed], run_dir)
            verified, work = verify["verified"], verify["accesses"]
        attempted, failed = check_samples(args.workload, args.seed, samples, verified)
        if args.trace and not check_counts(samples):
            print("determinism self-test failed: traced samples disagree on layer counts")
            failed = attempted

        print(f"memdis benchmark: workload {args.workload}, seed {args.seed}, "
              f"{len(samples)} samples, trace {args.trace}")
        print("host: " + json.dumps(host))
        e2e = end_to_end(samples, setup_times, work)
        wall = statistics.median(e2e["wall_s"])
        error_rate = failed / attempted
        print("end to end (untraced samples):")
        for name, values in e2e.items():
            print_metric(name, values, END_TO_END_UNITS[name])
        rate_name = "arrivals_per_s" if fleet else "maccess_per_s"
        rate = work / wall if fleet else work / 1e6 / wall
        print(f"  {rate_name:32s} {rate:14.6g} {PER_LAYER_UNITS[rate_name]}")
        print(f"  {'error_rate':32s} {error_rate:14.6g} ({failed} of {attempted} failed)")

        if args.trace:
            traced = [layer_values(s) for s in samples if s["traced"]]
            trace_path = save_spans(args, host, samples)
            layers = {name: statistics.median(v[name] for v in traced) for name in traced[0]}
            layers["trace.wall_s"] = statistics.median(s["wall_s"] for s in samples
                                                       if s["traced"])
            layers["trace.overhead_ratio"] = layers["trace.wall_s"] / wall
            layers["maccess_per_s"] = 0.0 if fleet else rate
            layers["arrivals_per_s"] = rate if fleet else 0.0
            layers["error_rate"] = error_rate
            print(f"per layer (median of {len(traced)} traced samples, spans in {trace_path}):")
            for name, unit in PER_LAYER_UNITS.items():
                print(f"  {name:32s} {layers[name]:14.6g} {unit}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
        else:
            metrics = {name: {"value": statistics.median(values),
                              "unit": END_TO_END_UNITS[name]}
                       for name, values in e2e.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    args = parse_args()
    try:
        run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
