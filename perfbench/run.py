#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solve_giant|serve_warm|fleet_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, mcr_serve, mcr_router
and the perfbench harness (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the harness's own unit tests, then
runs one workload. The harness prints a details line and, as the last
line of standard output, the JSON verdict, which is checked against the
metrics BENCHMARK.json declares (exit 4 and no verdict on a mismatch).
Build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_giant", "serve_warm", "fleet_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build incrementally. Returns the harness path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
                    "perfbench_tests"], check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(build_dir, "perfbench_tests")], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    try:
        harness = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--bin-dir", os.path.join(build_dir, "mcr", "tools"), "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 2
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    problems = manifest_problems(lines[-1], args.trace == "1")
    if problems:
        for p in problems:
            print(f"perfbench: verdict does not match BENCHMARK.json: {p}", file=sys.stderr)
        return 4
    print(lines[-1])
    return 0


def manifest_problems(verdict_line, traced):
    """Checks the verdict holds exactly the manifest's metrics, in its units."""
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(manifest_path):
        return []
    with open(manifest_path) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if traced else "end_to_end"]}
    try:
        got = json.loads(verdict_line)["metrics"]
    except (ValueError, KeyError, TypeError):
        return ["the last line is not a verdict"]
    problems = [f"{name} missing" for name in want if name not in got]
    problems += [f"{name} not in the manifest" for name in got if name not in want]
    problems += [f"{name} in {got[name].get('unit')}, not {unit}"
                 for name, unit in want.items() if name in got and got[name].get("unit") != unit]
    return problems


if __name__ == "__main__":
    sys.exit(main())
