"""Benchmark of reflection_workbench: time to an exact verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --replay DIR            # repeat a recorded run

Run it from the root of a source checkout: the package is imported from
./src.  Each pass runs in a fresh child process (child.py), one at a time,
and the child's peak RSS and CPU time come from its own rusage (os.wait4).
Passes repeat while the next one is expected to end within --seconds; set-up
is sampled again by probe processes that exit at the first check call.

--trace 0 reports the end-to-end metrics: wall_s (spawn to verdict),
setup_s (spawn to the first check call) and peak_rss_mb, each the median
over its samples.  --trace 1 spends half the time on untraced passes and
half on traced ones, and reports the per-layer metrics of tracer.PER_LAYER
with trace.overhead_s, the traced minus the untraced median wall time.

Every pass is checked: each check must reach its expected verdict, all
passes must give byte-identical canonical output, and for the default seed
each check's output and the whole body must match the digests in
reference.json.  Each result is stamped with host_loop_s, the time of a
fixed dictionary loop taken just before the passes.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every check was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
RUNS_DIR = ".perfbench-runs"
PROBES = 8
RUN_LIMIT_S = 170.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# -- stamps ---------------------------------------------------------------------


def _git_commit(root):
    """HEAD of a git checkout read from .git, or None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def stamps(root, src):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "source_sha256": _source_digest(src),
    }


# a fixed dictionary loop; its median time in a fresh child samples how fast
# the host runs pure-Python code when the run starts
HOST_LOOP = """
import statistics, time
times = []
for _ in range(5):
    start = time.perf_counter()
    table = {}
    for i in range(300000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""


def host_loop_s():
    """Seconds the fixed loop takes now, or None if the child failed.  Lets a
    comparison of two sets of runs spot a set taken while the host had slowed."""
    try:
        done = subprocess.run([sys.executable, "-c", HOST_LOOP], capture_output=True,
                              text=True, timeout=60, check=True)
        return float(done.stdout)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


# -- one child process ------------------------------------------------------------


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def run_child(run_dir, pass_dir, manifest, src, trace=0, probe=False, deadline=None):
    """Spawn one pass and reap it with wait4; returns its timings and usage."""
    os.makedirs(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    cmd = [sys.executable, CHILD, "--src", src, "--result", result_path,
           "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    if manifest["kind"] == "witness":
        cmd += manifest["argv"]
    else:
        cmd += ["--"] + manifest["argv"]
    env = dict(os.environ)
    env.pop("WORKBENCH_THREADS", None)
    limit = max(1.0, (deadline or time.monotonic() + RUN_LIMIT_S) - time.monotonic())
    with open(os.path.join(pass_dir, "output.txt"), "wb") as output:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=output,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = _load_json(result_path) or {}
    sample = {
        "exit": proc.returncode,
        "setup_s": None,
        "wall_s": None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if result.get("first_check") is not None:
        sample["setup_s"] = result["first_check"] - spawned
    if result.get("verdict") is not None:
        sample["wall_s"] = result["verdict"] - spawned
    return sample


# -- checking a pass's output -----------------------------------------------------


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _well_formed_witness(witness):
    return (
        isinstance(witness, dict)
        and isinstance(witness.get("row"), list)
        and isinstance(witness.get("col"), list)
        and isinstance(witness.get("lhs"), str)
        and isinstance(witness.get("rhs"), str)
        and witness["lhs"] != witness["rhs"]
    )


def read_outcome(run_dir, pass_dir, manifest, exit_code):
    """Digest per check label, and the labels whose verdict is wrong.

    The canonical output is the report's "body" (cli workloads) or each
    negative control's report (witness).  Missing checks count as wrong.
    """
    digests, wrong = {}, []
    if manifest["kind"] == "witness":
        source = os.path.join(run_dir, "controls.json")
        controls = _load_json(source) or []
        by_label = {entry.get("control"): entry for entry in controls}
        for label in workloads.WITNESS_CONTROLS:
            entry = by_label.get(label)
            if entry is None or "error" in entry:
                wrong.append(label)
                continue
            digests[label] = _digest(entry)
            if entry["passed"] or not _well_formed_witness(entry["witness"]):
                wrong.append(label)
        body_digest = _digest(controls)
    else:
        source = os.path.join(run_dir, "report.json")
        document = _load_json(source) or {}
        body = document.get("body") or {"checks": []}
        for index, check in enumerate(body["checks"]):
            label = f"{index}:{check.get('name')}"
            digests[label] = _digest(check)
            if check.get("passed") is not True or check.get("witness") is not None:
                wrong.append(label)
        for index in range(len(body["checks"]), manifest["checks"]):
            wrong.append(f"{index}:missing")
        if exit_code != 0 and not wrong:
            wrong.append("exit-code")
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
        body_digest = hashlib.sha256(text.encode()).hexdigest()
    if os.path.exists(source):
        shutil.move(source, os.path.join(pass_dir, os.path.basename(source)))
    return {"digests": digests, "wrong": wrong, "body_sha256": body_digest}


def count_failures(outcomes, expected, manifest):
    """Checks failed over all passes: a wrong verdict, or a check digest or
    body digest that differs from the reference (default seed) or from the
    first pass (any seed).  A body that differs while every check digest
    agrees counts as one failed check."""
    attempted = failed = 0
    mismatches = []
    if expected is None and outcomes:
        expected = {"checks": outcomes[0]["digests"], "body_sha256": outcomes[0]["body_sha256"]}
    for index, outcome in enumerate(outcomes):
        attempted += manifest["checks"]
        bad = set(outcome["wrong"])
        for label, digest in outcome["digests"].items():
            if expected["checks"].get(label) != digest:
                bad.add(label)
                mismatches.append((index, label))
        if outcome["body_sha256"] != expected["body_sha256"]:
            mismatches.append((index, "body"))
            if not bad:
                bad.add("body")
        failed += min(len(bad), manifest["checks"])
    return attempted, failed, mismatches


# -- one workload ----------------------------------------------------------------


def _median(values, pick=statistics.median):
    values = [value for value in values if value is not None]
    return pick(values) if values else None


def _new_run_dir(root, name, seed, trace):
    base = os.path.join(root, RUNS_DIR, name)
    os.makedirs(base, exist_ok=True)
    stem = f"seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = os.path.join(base, stem)
    os.makedirs(run_dir)
    return run_dir


def _prepare(root, name, seed, trace, replay):
    if replay is None:
        run_dir = _new_run_dir(root, name, seed, trace)
        return run_dir, workloads.generate(name, seed, run_dir)
    recorded = _load_json(os.path.join(replay, "manifest.json"))
    if recorded is None:
        raise SystemExit(f"error: no manifest.json in {replay}")
    run_dir = _new_run_dir(root, recorded["workload"], recorded["seed"], trace)
    for path, digest in recorded["inputs"].items():
        shutil.copy(os.path.join(replay, path), os.path.join(run_dir, path))
        if workloads.file_digest(os.path.join(run_dir, path)) != digest:
            raise SystemExit(f"error: {path} in {replay} does not match its digest")
    return run_dir, recorded


def _passes(run_dir, manifest, src, trace, budget, deadline, samples, outcomes, tag):
    started = time.monotonic()
    count = 0
    while True:
        count += 1
        pass_dir = os.path.join(run_dir, f"{tag}-{count:02d}")
        sample = run_child(run_dir, pass_dir, manifest, src, trace=trace, deadline=deadline)
        sample["pass_dir"] = os.path.relpath(pass_dir, run_dir)
        samples.append(sample)
        outcomes.append(read_outcome(run_dir, pass_dir, manifest, sample["exit"]))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / count > budget or time.monotonic() + elapsed / count > deadline:
            return


def run_workload(root, name, seed, seconds, trace, replay=None):
    src = os.path.join(root, "src")
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir, manifest = _prepare(root, name, seed, trace, replay)
    name, seed = manifest["workload"], manifest["seed"]
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=1)

    host_s = host_loop_s()
    untraced, traced, outcomes = [], [], []
    budget = seconds / 2.0 if trace else float(seconds)
    _passes(run_dir, manifest, src, 0, budget, deadline, untraced, outcomes, "pass")
    probes = []
    if trace:
        _passes(run_dir, manifest, src, 1, budget, deadline, traced, outcomes, "traced")
    else:
        for index in range(1, PROBES + 1):
            probe_dir = os.path.join(run_dir, f"probe-{index:02d}")
            probes.append(run_child(run_dir, probe_dir, manifest, src, probe=True,
                                    deadline=deadline))

    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = (_load_json(REFERENCE) or {}).get(name)
    attempted, failed, mismatches = count_failures(outcomes, reference, manifest)
    # a pass or probe that ended without its timestamps crashed or was killed
    missing = [s for s in untraced + traced if s["wall_s"] is None]
    missing += [s for s in probes if s["setup_s"] is None]

    if trace:
        per_pass = []
        for sample in traced:
            try:
                spans = tracer.load_spans(os.path.join(run_dir, sample["pass_dir"], "spans.json"))
            except (OSError, ValueError):
                missing.append(sample)
                continue
            per_pass.append(tracer.layer_metrics(spans, sample["cpu_s"], sample["wall_s"] or 0.0))
        traced_wall = _median([s["wall_s"] for s in traced])
        untraced_wall = _median([s["wall_s"] for s in untraced])
        metrics = {}
        for metric, _unit, _better in tracer.PER_LAYER:
            if metric == "trace.overhead_s":
                metrics[metric] = (None if None in (traced_wall, untraced_wall)
                                   else traced_wall - untraced_wall)
            else:
                # median_low keeps exact counts whole numbers
                metrics[metric] = _median([m[metric] for m in per_pass], statistics.median_low)
        units = {metric: unit for metric, unit, _better in tracer.PER_LAYER}
    else:
        metrics = {
            "wall_s": _median([s["wall_s"] for s in untraced]),
            "setup_s": _median([s["setup_s"] for s in untraced + probes]),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in untraced]),
        }
        units = dict(END_TO_END)
    counts = {
        "wall_s": len(untraced),
        "setup_s": len(untraced) + len(probes),
        "peak_rss_mb": len(untraced),
        "traced": len(traced),
    }
    result = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "passes": len(untraced) + len(traced),
        "samples": counts,
        "stamps": dict(stamps(root, src), host_loop_s=host_s),
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "body_sha256": [outcome["body_sha256"] for outcome in outcomes],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "untraced": untraced,
        "traced_samples": traced,
        "probes": probes,
        "run_dir": os.path.relpath(run_dir, root),
        "first_digests": outcomes[0]["digests"] if outcomes else {},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True, indent=1)
    return result


# -- output ----------------------------------------------------------------------


def summary_lines(result):
    stamp = result["stamps"]
    ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    lines = [
        f"{result['workload']}: seed={result['seed']} traced={result['traced']} "
        f"passes={result['passes']} nproc={stamp['nproc']} python={stamp['python']} "
        f"commit={stamp['commit'] or 'none'} source={stamp['source_sha256'][:12]} "
        f"host_loop_s={stamp['host_loop_s']} "
        f"run_dir={result['run_dir']}"
    ]
    samples = result["samples"]
    for key, entry in result["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        count = samples.get(key, samples["traced"])
        lines.append(f"  {key:32s} {shown:>14s} {entry['unit']:6s} median of {count}")
    lines.append(f"  {'failed_ratio':32s} {ratio:>14.6g} {'ratio':6s} "
                 f"{result['failed']} of {result['attempted']} checks")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", default=None,
                        help="run directory whose recorded inputs are run again")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "reflection_workbench", "cli.py")):
        print(f"error: no package source at {src}/reflection_workbench; "
              "run from the root of a reflection-workbench checkout", file=sys.stderr)
        return 2

    if args.replay is not None:
        names = [None]
    elif args.workload == "all":
        names = list(workloads.WORKLOADS)
    else:
        names = [args.workload]
    results = [run_workload(root, name, args.seed, args.seconds, args.trace, args.replay)
               for name in names]
    for result in results:
        for line in summary_lines(result):
            print(line)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{key}": entry
                   for r in results for key, entry in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
