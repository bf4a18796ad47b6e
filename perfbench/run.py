#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dense_1c --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every run configures and builds
perfbench/ (which builds the simulator library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the
first run compiles everything. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced
pass with --trace 1. The line before it records the host and build
("# env {...}"); the same record, with every output line, is saved
under .bench_work/results/.

Refusals print "UNMEASURED: <reason>" and exit non-zero without a
result: a failed build, an unoptimised, sanitizer or GAZE_OBS build,
more --workers than online CPUs, or a warm pass that re-simulates.

Maintenance:
    --update-pins   re-pin (workload, seed) from a polled-engine run
                    into perfbench/pins.json (only after a change that
                    is meant to move simulated results)
    --self-test     check that the pinned-result check catches one
                    perturbed field
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINS = os.path.join(BENCH_DIR, "pins.json")
WORKLOADS = ("fig06_cold", "dense_1c", "sparse_1c", "mix_4c")
DEFAULT_SEED = 1
# Never pinned and never used while choosing the workloads: a later
# claim is re-checked on it (against a polled-engine reference).
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def refuse(why):
    print(f"UNMEASURED: {why}", flush=True)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(nproc):
    """Configure (once) and build gaze_bench; return the binary path."""
    bdir = build_dir()
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(bdir, "build.log")
    # Configuring an existing tree is quick, and it repairs one whose
    # last configure failed.
    steps = [["cmake", "-S", BENCH_DIR, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "gaze_bench",
              "-j", str(nproc)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    env=env).returncode
            except FileNotFoundError:
                refuse("cmake not found")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                refuse(f"build failed ({' '.join(cmd[:2])}); "
                       f"see {os.path.relpath(log_path, ROOT)}")
    return os.path.join(bdir, "gaze_bench")


def source_revision():
    """git revision if this is a git checkout, plus a digest of the
    sources the benchmark builds (a checkout may not be a git repo)."""
    rev = "none"
    # Look for ROOT/.git only, never in the directories above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=env).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            rev = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return rev, h.hexdigest()[:16]


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        refuse(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        print("\n".join(lines), flush=True)
        if not any(l.startswith("UNMEASURED:") for l in lines):
            refuse(f"gaze_bench exited with code {proc.returncode}")
        sys.exit(proc.returncode)
    return lines


def update_pins(binary, workload, seed, work_dir):
    lines = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                "--emit-pins", "--work-dir", work_dir])
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    for line in lines:
        if line.startswith("PINS "):
            _, wl, key, doc = line.split(" ", 3)
            pins.setdefault(wl, {})[key] = json.loads(doc)
            print(f"pinned {wl} seed {key}: "
                  f"{len(pins[wl][key]['cells'])} cells")
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=0,
                    help="fig06_cold pool size (default: online CPUs)")
    ap.add_argument("--update-pins", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.workload and not a.self_test:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    nproc = len(os.sched_getaffinity(0))
    load_start = os.getloadavg()
    binary = build(nproc)
    if a.self_test:
        lines = run_binary(binary, ["--self-test"])
        print("\n".join(lines))
        return

    tag = f"{a.workload}-s{a.seed}-t{a.trace}"
    bench_work = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(bench_work, f"tmp-{tag}-{os.getpid()}")
    results_dir = os.path.join(bench_work, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        if a.update_pins:
            update_pins(binary, a.workload, a.seed, work_dir)
            return
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--pins", PINS, "--work-dir", work_dir]
        if a.workers:
            args += ["--workers", str(a.workers)]
        lines = run_binary(binary, args)
        for name in os.listdir(work_dir):
            if name.startswith("spans-"):
                shutil.copy(os.path.join(work_dir, name),
                            os.path.join(results_dir, f"{tag}-{name}"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = json.loads(lines[-1])
    build_info = json.loads(lines[0][len("# build "):])
    rev, digest = source_revision()
    env = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "nproc": nproc,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        **build_info,
        "git_revision": rev, "source_sha256": digest,
        "held_out_seed": HELD_OUT_SEED,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump({"env": env, "output": lines[:-1], "result": result}, f,
                  indent=1)
    print("\n".join(lines[:-1]))
    print("# env " + json.dumps(env))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
