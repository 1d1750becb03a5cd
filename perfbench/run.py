#!/usr/bin/env python3
"""ABACUS / PARABACUS benchmark.

    python3 perfbench/run.py --workload dense-m10k --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run builds the benchmark code
and the program's main sources with sbt (perfbench/build.sbt); later runs
start the JVM on the stored class path. Workload parameters, the ladder of
offered rates and the intent of every workload live in
perfbench/workloads.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer split with `--trace 1`. Everything else a run
records (environment, windows of the ladder, warnings, findings) is written
to perfbench/.results/, and traced runs add their spans there.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, ".build")
RESULTS_DIR = os.path.join(HERE, ".results")
CLASSPATH = os.path.join(BUILD_DIR, "classpath.txt")
HEAP = "2g"
YOUNG = "256m"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SMOKE_PREFIX = 4000
# Run length for which workloads.json sets the number of timed rounds
# (BENCHMARK.json's run_seconds); other lengths scale it.
REF_SECONDS = 28
# Retained bytes per sampled edge seen on every workload; outside it, state
# no longer grows linearly in |S| <= k.
STATE_BYTES_PER_EDGE = (150, 600)


def log(msg):
    print(msg, flush=True)


def sources():
    pats = ["src/main/scala/**/*.scala", "perfbench/src/**/*.scala", "perfbench/build.sbt",
            "perfbench/project/build.properties"]
    return sorted(f for p in pats for f in glob.glob(os.path.join(ROOT, p), recursive=True))


def source_digest():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Compile once per checkout; rebuild only when a source is newer."""
    if not glob.glob(os.path.join(ROOT, "src/main/scala/repro/core/*.scala")):
        sys.exit("perfbench: the program's sources (src/main/scala) are not in this checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(CLASSPATH):
            stamp = os.path.getmtime(CLASSPATH)
            if all(os.path.getmtime(f) <= stamp for f in sources()):
                with open(CLASSPATH) as fh:
                    return fh.read().strip()
        log("perfbench: building with sbt ...")
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
               "compile", "export Runtime/fullClasspath"]
        with open(os.path.join(BUILD_DIR, "build.log"), "w") as out:
            code = run_child(cmd, HERE, env, out, subprocess.STDOUT, BUILD_TIMEOUT_S)
        with open(os.path.join(BUILD_DIR, "build.log")) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        if code != 0 or not lines or ":" not in lines[-1] or lines[-1].startswith("["):
            sys.stderr.write("\n".join(lines[-30:]) + "\n")
            sys.exit("perfbench: build failed")
        with open(CLASSPATH, "w") as fh:
            fh.write(lines[-1])
        return lines[-1]


def run_child(cmd, cwd, env, stdout, stderr, timeout):
    """Run `cmd` in its own process group; kill the group on timeout and
    wait until it has ended."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                         stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return -1
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def rounds(at_ref, seconds):
    """Timed rounds for a run of `seconds`; workloads.json gives them for
    a run of REF_SECONDS."""
    return max(1, round(at_ref * seconds / REF_SECONDS))


def jvm(classpath, wl_name, wl, seed, seconds, trace, prefix, timeout):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{wl_name}-seed{seed}-trace{trace}"
    # A fixed young generation keeps G1 from resizing it after the
    # allocation-heavy ABACUS phase, which otherwise shifts later phases.
    args = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}",
            f"-Djava.io.tmpdir={os.path.join(RESULTS_DIR, 'tmp')}",
            "-cp", classpath, "perfbench.Main",
            "--workload", wl_name, "--dataset", wl["dataset"], "--alpha", str(wl["alpha"]),
            "--k", str(wl["k"]), "--batch", str(wl["batch"]),
            "--par-elements", str(wl["par_elements"]),
            "--rounds", str(rounds(wl["rounds"], seconds)),
            "--window-s", str(wl["window_s"]),
            "--rates", ",".join(str(r) for r in wl["rates"]),
            "--latency-limit-ms", str(wl["latency_limit_ms"]),
            "--seed", str(seed), "--trace", str(trace),
            "--prefix", str(prefix), "--out", RESULTS_DIR]
    tmp = os.path.join(RESULTS_DIR, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    out_path = os.path.join(RESULTS_DIR, tag + ".out")
    err_path = os.path.join(RESULTS_DIR, tag + ".log")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        code = run_child(args, ROOT, dict(os.environ), out, err, timeout)
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    result = details = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
        elif line.startswith("PERFBENCH_DETAILS "):
            details = json.loads(line.split(" ", 1)[1])
        else:
            log(line)
    if code != 0 or result is None:
        with open(err_path) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        sys.exit(f"perfbench: run of {wl_name} failed (exit {code}); see {err_path}")
    return result, details


def environment(seed, trace, details):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "jvm": details.get("jvm"),
        "spark": details.get("spark_version"),
        "heap": f"-Xms{HEAP} -Xmx{HEAP} -Xmn{YOUNG}",
        "git_commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
        "trace": trace,
        "note": "EXPERIMENTS.md figures came from a 16-core machine; they are not comparable "
                "with runs of this benchmark on another core count.",
    }


def findings(wl, metrics, details, trace):
    """Bound checks (Theorems 6 and 7) and the workload's expected layer
    shares; a broken one is reported, never hidden."""
    out = list(details.get("warnings", []))
    lo, hi = STATE_BYTES_PER_EDGE
    per_edge = details.get("state_bytes_per_sample_edge")
    if per_edge is not None and not lo <= per_edge <= hi:
        out.append(f"bound: the estimator retains {per_edge:.0f} B per sampled edge, outside "
                   f"the band {lo}..{hi} that every workload shares (state is O(k), Theorem 6)")
    if trace:
        for e in wl.get("expect", []):
            v = metrics.get(e["metric"], {}).get("value")
            if v is None or v < e["min"]:
                out.append(f"finding: {e['metric']} = {v} is below {e['min']}: {e['claim']}")
    return out


def run_workload(name, wl, seed, seconds, trace, prefix=0):
    classpath = build()
    result, details = jvm(classpath, name, wl, seed, seconds, trace, prefix, RUN_TIMEOUT_S)
    env = environment(seed, trace, details)
    notes = findings(wl, result["metrics"], details, trace)
    record = {"env": env, "workload": name, "why": wl["why"], "moves": wl["moves"],
              "details": details, "findings": notes, "result": result}
    with open(os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    log(f"env {json.dumps(env)}")
    for n in notes:
        log(f"WARNING {n}")
    for k, v in result["metrics"].items():
        log(f"{name} {k} = {v['value']:.6g} {v['unit']}")
    log(f"{name} operations: {result['failed']} failed of {result['attempted']} attempted")
    return result


def smoke(config):
    """Each workload on a tiny prefix, traced: every correctness check
    must pass."""
    ok = True
    for name, wl in config["workloads"].items():
        r = run_workload(name, wl, seed=1, seconds=2, trace=1, prefix=SMOKE_PREFIX)
        ok &= r["correct"] and r["failed"] == 0
    log("smoke: " + ("all correctness checks passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload on a tiny prefix")
    a = ap.parse_args()
    with open(os.path.join(HERE, "workloads.json")) as fh:
        config = json.load(fh)
    if a.smoke:
        return smoke(config)
    if a.workload not in config["workloads"]:
        ap.error(f"--workload must be one of {', '.join(config['workloads'])}")
    started = time.time()
    result = run_workload(a.workload, config["workloads"][a.workload], a.seed, a.seconds, a.trace)
    log(f"{a.workload} wall {time.time() - started:.1f} s")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
