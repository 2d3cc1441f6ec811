#!/usr/bin/env python3
"""Build and run the ldgm benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload match --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare BASE.json NEW.json

The first form builds the benchmark package (perfbench/Cargo.toml, a
workspace of its own with path dependencies on the repository's crates)
in release mode, runs one workload, and relays its output: every metric
by name and unit, then the one-line JSON result as the last line. The
full result, and for a traced run the recorded spans, are written under
perfbench/out/. `--workload all` runs the workloads one after
another, each in its own process, so no workload's memory peak reaches
another's. `compare` prints the change in every metric of two result
files.

The build goes to $CARGO_TARGET_DIR, or .bench_build/ in the checkout.
A failed build, a failed output check, or a run over its time limit
ends the command with a nonzero exit code.
"""

import os
import subprocess
import sys

WORKLOADS = ["match", "serve"]
# A run must end within this many seconds; the build is not counted.
RUN_LIMIT_S = 175


def root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(top):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(top, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(top, "perfbench", "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr, so the result line stays last on
    # stdout.
    done = subprocess.run(cmd, cwd=top, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(top, target)
    return os.path.join(target, "release", "perfbench")


def run_one(binary, top, args):
    """Run the benchmark binary once; relay its stdout; return its code."""
    proc = subprocess.Popen([binary] + args, cwd=top, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_LIMIT_S)
        return 124
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def main(argv):
    top = root()
    binary = build(top)
    if binary is None:
        return 3
    if argv[:1] == ["compare"]:
        return subprocess.run([binary] + argv, cwd=top).returncode
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            worst = 0
            for w in WORKLOADS:
                print("== %s" % w)
                code = run_one(binary, top, argv[:i + 1] + [w] + argv[i + 2:])
                worst = worst or code
            return worst
    return run_one(binary, top, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
