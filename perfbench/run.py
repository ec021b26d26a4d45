#!/usr/bin/env python3
"""Build and run the ICC repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds the ICC libraries and the benchmark program from source (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench) and runs one
measured run of one workload. The last line of stdout is the JSON result;
build output and the human-readable table go to stderr. A traced run
(--trace 1) also writes its span file next to the build.

--selftest runs the benchmark's own tests and the legacy cross-checks against
BENCH_parallel.json and BENCH_table1.json.
"""
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then (re)build; returns the build directory or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr) != 0:
        return None
    return out


def run(cmd):
    """Run a child to completion; its stdout is passed through. The child is
    killed and waited for on timeout or when this script is stopped.
    Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def baseline(name, key):
    with open(os.path.join(ROOT, name)) as f:
        for r in json.load(f)["results"]:
            if r["name"] == key:
                return r["value"]
    raise KeyError(f"{name}: {key}")


def legacy_check(out):
    """The workload definitions at the old settings must reproduce the
    committed baselines exactly (as printed there, to three decimals)."""
    code, text = run([os.path.join(out, "icc_perfbench"), "--legacy"])
    if code != 0:
        return False
    got = json.loads(text.strip().splitlines()[-1])
    par = got["parallel"]
    threads = f"threads{par['threads']}"
    pairs = [
        ("BENCH_parallel.json", f"{threads}/blocks", par["blocks"]),
        ("BENCH_parallel.json", f"{threads}/provider_verifications",
         par["provider_verifications"]),
        ("BENCH_parallel.json", f"{threads}/total_messages", par["total_messages"]),
        ("BENCH_table1.json", "n13/load_failures/blocks_per_s", got["table1"]["blocks_per_s"]),
        ("BENCH_table1.json", "n13/load_failures/mbps_per_node", got["table1"]["mbps_per_node"]),
    ]
    ok = True
    for file, key, value in pairs:
        want = baseline(file, key)
        same = f"{value:.3f}" == f"{want:.3f}"
        ok = ok and same
        log(f"legacy {file} {key}: {value:.3f} vs {want:.3f} {'ok' if same else 'MISMATCH'}")
    return ok


def main(argv):
    # SIGTERM unwinds like an exception, so children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = build()
    if out is None:
        log("build failed")
        return 2
    if argv == ["--selftest"]:
        code, _ = run([os.path.join(out, "perfbench_selftest")])
        legacy_ok = legacy_check(out)
        return 0 if code == 0 and legacy_ok else 1
    def arg(flag):
        i = argv.index(flag) + 1 if flag in argv else len(argv)
        return argv[i] if i < len(argv) else None

    cmd = [os.path.join(out, "icc_perfbench")] + argv
    if arg("--trace") == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{arg('--workload')}-seed{arg('--seed')}.jsonl"
        cmd += ["--spans", os.path.join(spans, name)]
    code, _ = run(cmd)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
