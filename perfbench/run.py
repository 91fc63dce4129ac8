#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <sim_paper|serve_ingest|serve_control> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (the workspace's release
settings; `$CARGO_TARGET_DIR` if set, else `perfbench/target`), then runs
one workload pinned to a single CPU and passes its output through. The last
line of standard output is the benchmark's JSON result. Traced runs write
their Chrome trace to `.bench_out/`. Exits non-zero, without a result line,
when the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    if not os.path.isabs(target):
        target = os.path.join(root, target)

    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
            "--target-dir", target,
        ],
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # One CPU for the load generator, the service and the simulator alike:
    # a closed loop whose client and server run on different CPUs measures
    # wake-up latency across CPUs more than it measures the program.
    cpu = max(os.sched_getaffinity(0))
    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen(
        [binary] + sys.argv[1:],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
