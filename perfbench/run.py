"""Benchmark of the hafx conversion lab.

    python3 perfbench/run.py --workload {base-train,ssd-convert,ablate-long}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Every step runs in a fresh worker
process (`workloads.py`), one process at a time, with BLAS at its default
thread count: first SETUP_ONLY workers that only set up, then one worker
per round until S seconds have passed, at least two. A round is one pass
of the workload's pipeline commands; the first round's outputs are checked
against an independent numpy reference, and every round of the seed must
give identical results.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the rounds in
pairs, untraced then traced, and reports the per-layer metrics of the
traced rounds. The last line of standard output is one JSON object:
correct, attempted, failed and metrics. Every run also writes a run record
to .perfbench/records/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from hooks import per_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("base-train", "ssd-convert", "ablate-long")
SETUP_ONLY = 3  # with the two rounds' own set-ups, five set-up samples
DEADLINE_S = 170  # a run must end within 180 s

UNITS = {
    "setup_s": "s", "run_s": "s", "train_tokens_per_s": "tokens/s",
    "train_step_ms_p50": "ms", "train_step_ms_p90": "ms",
    "transfer_tokens_per_s": "tokens/s", "eval_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
}


def worker(args, extra, deadline):
    """Runs one worker to its end; returns its JSON result and the time it
    was started (time.monotonic, which the worker's clock shares)."""
    env = dict(os.environ)
    env.pop("HAFX_OUTPUT_DIR", None)  # the benchmark chooses output dirs
    work = os.path.join(ROOT, ".perfbench", "work", f"{os.getpid()}-{time.monotonic_ns()}")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--work", work, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def end_to_end(rounds, setup):
    """End-to-end metrics of the untraced rounds."""
    train = [d for r in rounds for d in r["train_step_s"]]
    transfer = [d for r in rounds for d in r["transfer_step_s"]]
    evals = [e for r in rounds for e in r["eval_tokens_s"]]
    if not (train and transfer and evals):  # a round failed; the run reports it
        return {"setup_s": statistics.median(setup)}
    tokens = rounds[0]["step_tokens"]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["round_s"] for r in rounds),
        "train_tokens_per_s": len(train) * tokens / sum(train),
        "train_step_ms_p50": 1e3 * statistics.median(train),
        "train_step_ms_p90": 1e3 * statistics.quantiles(train, n=10, method="inclusive")[8],
        "transfer_tokens_per_s": len(transfer) * tokens / sum(transfer),
        "eval_tokens_per_s": sum(t for t, _s in evals) / sum(s for _t, s in evals),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds, traced):
    """Per-layer metrics: medians over the traced rounds, and the tracing
    overhead, traced minus untraced round time."""
    out, units = {}, {}
    for name, unit in per_layer_names():
        units[name] = unit
        if name == "trace.overhead_s":
            out[name] = (statistics.median(r["round_s"] for r in traced)
                         - statistics.median(r["round_s"] for r in rounds))
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            vals = [r["layers"]["calls"].get(base, 0) for r in traced]
        elif kind == "self_ms":
            vals = [1e3 * r["layers"]["self_s"].get(base, 0.0) for r in traced]
        else:
            vals = [r["layers"]["counts"].get(name, 0) for r in traced]
        out[name] = statistics.median(vals)
    return out, units


def source_digest():
    """sha256 over the program's sources, to identify the code measured when
    the checkout carries no commit id."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".txt")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def steal_s():
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hafx", "__init__.py")):
        print(f"error: no hafx sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_before, steal_before = os.getloadavg(), steal_s()
    setup, rounds = [], []
    try:
        for _ in range(SETUP_ONLY):
            res, started = worker(args, ["--setup-only"], deadline)
            setup.append(res["ready"] - started)
        t0 = time.monotonic()
        while len(rounds) < 2 or time.monotonic() - t0 < args.seconds:
            for traced in ((False, True) if args.trace else (False,)):
                extra = (["--check"] if not rounds else []) + (["--trace"] if traced else [])
                res, started = worker(args, extra, deadline)
                setup.append(res["ready"] - started)
                rounds.append(dict(res, traced=traced))
                if res["error"] is not None:
                    break
            if rounds[-1]["error"] is not None:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1
    load_after, steal_after = os.getloadavg(), steal_s()

    checks = [c for r in rounds for c in r["checks"]]
    digests = [r["digest"] for r in rounds]
    checks.append(("rounds_identical", len(set(digests)) == 1,
                   f"{len(digests)} rounds in fresh processes, digests {sorted(set(digests))}"))
    failed = sum(not ok for _n, ok, _d in checks)
    attempted = sum(r["operations"] for r in rounds) + 1

    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics, units = per_layer(untraced, [r for r in rounds if r["traced"]])
    else:
        metrics, units = end_to_end(untraced, setup), UNITS
    correct = failed == 0 and len(metrics) == len(units)

    env = rounds[0]["env"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "env": env,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "steal_s": None if steal_before is None else steal_after - steal_before,
        "setup_samples_s": setup, "round_s": [r["round_s"] for r in rounds],
        "traced": [r["traced"] for r in rounds],
        "train_step_s": [r["train_step_s"] for r in untraced],
        "transfer_step_s": [r["transfer_step_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "absent": sorted({a for r in rounds for a in r.get("absent", [])}),
        "trace_files": [r["trace_file"] for r in rounds if "trace_file" in r],
        "checks": checks, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    rec_dir = os.path.join(ROOT, ".perfbench", "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                     f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"# {args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} x{env['blas_threads']} threads, nproc {record['nproc']}, load "
          f"{load_before[0]:.2f} -> {load_after[0]:.2f}, steal {record['steal_s'] or 0:.2f} s, "
          f"commit {record['commit']}")
    for name, ok, detail in checks:
        if not ok:
            print(f"# check FAILED {name}: {detail}")
    print(f"# rounds {[round(s, 3) for s in record['round_s']]} s, step samples: train "
          f"{sum(map(len, record['train_step_s']))}, "
          f"transfer {sum(map(len, record['transfer_step_s']))}")
    for name in record["absent"]:
        print(f"# absent: {name} (no longer in the program; reported as 0)")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"# record {os.path.relpath(rec_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
