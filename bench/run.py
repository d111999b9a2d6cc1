"""teff benchmark: seeded closed-loop workloads with reference checks.

    python3 bench/run.py --workload solve-wells --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --out bench/results.json

Run from the repository root.  Each workload runs in fresh interpreters
(see worker.py): set-up is timed from process start to the first request
being ready, three times, and the median reported.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
untraced, the ``per_layer`` metrics with ``--trace 1``.

``--workload all`` runs every workload untraced and traced, prints the
report, the reproduction of the ROADMAP baseline table and the machine,
and with ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("solve-wells", "chi-points", "oracle-levels")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
MIN_P90_SAMPLES = 100   # at least ten requests beyond the 90th percentile
# one client, one thread: keep numerical libraries from starting pools
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

# (ROADMAP row, baseline quoted there, workload, per-layer metric, unit)
ROADMAP_TABLE = (
    ("import teff", "~1.0 s", "solve-wells", "table.import_teff_s", "s"),
    ("analyze_slice", "1.0 ms", "solve-wells", "table.analyze_slice_ms", "ms"),
    ("action_I", "1.1 ms", "solve-wells", "table.action_I_ms", "ms"),
    ("chi_profile, Yukawa", "6.3 ms", "chi-points", "table.chi_profile_yukawa_ms", "ms"),
    ("chi_profile, TF at E=0", "113 ms", "chi-points", "table.chi_profile_tf_e0_ms", "ms"),
    ("TF table, first use", "4.1 s", "chi-points", "potentials.tf_table.build_s", "s"),
    ("quantize_energy, screened level", "250-290 ms", "solve-wells",
     "table.quantize_energy_screened_ms", "ms"),
    ("quantize_energy, V=r", "25 ms", "solve-wells", "table.quantize_energy_linear_ms", "ms"),
    ("Yukawa Z=50 enumeration", "7.2 s", "solve-wells", "table.yukawa_z50_enumeration_s", "s"),
    ("one oracle level", "0.8-4.2 s", "oracle-levels", "table.oracle_level_s", "s"),
)


class BenchError(Exception):
    pass


def machine():
    """What the numbers depend on; numba's absence alone changes oracle times ~8x."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_present": importlib.util.find_spec("numba") is not None}


def _spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Run one worker; returns (seconds until it was ready, its stdout after that)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=WORKER_ENV, cwd=ROOT)
    try:
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    raise BenchError(f"{workload}: worker not ready in time")
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buf += chunk
        setup_s = time.perf_counter() - t0
        head, _, rest = buf.partition(b"\n")
        if head != b"ready":
            raise BenchError(f"{workload}: worker failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return setup_s, rest + out


def run_workload(workload, seed, seconds, trace, deadline):
    """Set up SETUP_SAMPLES fresh interpreters, the last of which runs the loop."""
    setups = [_spawn(workload, seed, seconds, trace, deadline, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, out = _spawn(workload, seed, seconds, trace, deadline)
    setups.append(setup_s)
    raw = json.loads(out.decode().strip().splitlines()[-1])
    raw["setup_samples_s"] = setups
    return raw


def end_to_end(raw):
    lat = raw["latencies_ms"]
    if not lat or raw["wall_s"] <= 0.0:
        raise BenchError("no deck was timed")
    out = {
        "setup_s": statistics.median(raw["setup_samples_s"]),
        "throughput": raw["units"] / raw["wall_s"],
        "latency_p50_ms": statistics.median(lat),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0,
    }
    if len(lat) >= MIN_P90_SAMPLES:
        out["latency_p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return out


def print_report(workload, seed, seconds, raw, e2e, layers, units):
    n = len(raw["latencies_ms"])
    print(f"== {workload}  seed {seed}  {seconds:g} s  {raw['attempted']} requests "
          f"(anchors included), {raw['failed']} failed; timed decks: {n} requests, "
          f"{raw['units']} {raw['unit']}s")
    if e2e:
        notes = {"setup_s": f"median of {len(raw['setup_samples_s'])} fresh interpreters",
                 "throughput": f"{raw['unit']}s per second",
                 "latency_p50_ms": f"n={n}", "latency_p90_ms": f"n={n}",
                 "failed_frac": f"{raw['failed']}/{raw['attempted']}"}
        units = dict(units, failed_frac="", latency_p90_ms="ms")
        for name in ("setup_s", "throughput", "latency_p50_ms", "latency_p90_ms",
                     "failed_frac", "peak_rss_mb"):
            if name in e2e:
                print(f"  {name:16s} {e2e[name]:12.4f} {units[name]:4s}  {notes.get(name, '')}")
            else:
                print(f"  {name:16s} {'n/a':>12s}       fewer than {MIN_P90_SAMPLES} requests")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}")
    for name, value in (layers or {}).items():
        print(f"  {name:38s} {value:14.6g}")


def single(args, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    raw = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
    e2e = {} if args.trace else end_to_end(raw)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = raw["layers"] if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print_report(args.workload, args.seed, args.seconds, raw, e2e, raw.get("layers"), units)
    print("machine " + json.dumps(machine()))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def run_all(args, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    results = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0,
                             time.monotonic() + RUN_LIMIT_S)
        traced = run_workload(workload, args.seed, args.seconds, 1,
                              time.monotonic() + RUN_LIMIT_S)
        e2e = end_to_end(plain)
        print_report(workload, args.seed, args.seconds, plain, e2e, None, units)
        results["workloads"][workload] = {
            "attempted": plain["attempted"], "failed": plain["failed"],
            "problems": plain["problems"], "end_to_end": e2e,
            "per_layer": traced["layers"]}
    print("== ROADMAP baseline table, from the traced runs")
    table = []
    for row, quoted, workload, metric, unit in ROADMAP_TABLE:
        value = results["workloads"][workload]["per_layer"][metric]
        table.append({"operation": row, "roadmap": quoted, "workload": workload,
                      "metric": metric, "value": value, "unit": unit})
        print(f"  {row:34s} {quoted:>11s}  {value:10.4g} {unit:3s} {workload}/{metric}")
    results["roadmap_table"] = table
    print("machine " + json.dumps(results["machine"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    failed = sum(w["failed"] for w in results["workloads"].values())
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the results here as JSON")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "teff", "__init__.py")):
        print(f"bench: no teff sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        if args.workload == "all":
            return run_all(args, spec)
        single(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
