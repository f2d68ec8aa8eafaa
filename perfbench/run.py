#!/usr/bin/env python3
"""Builds and runs the gateway benchmark.

    python3 perfbench/run.py --workload <webaccel|sessions|adapt> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR` (default `perfbench/target`),
then runs one workload in a process of its own:

* `--trace 0` runs the untraced binary, which prints the end-to-end
  metrics;
* `--trace 1` first runs the untraced binary's light phase alone (the
  reference for `trace.overhead_ratio`), then the traced binary, which
  prints the per-layer metrics.

The last line of standard output is the result object. Build output and
the reference run go to standard error. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def stamp_env():
    env = dict(os.environ)
    try:
        env["PERFBENCH_RUSTC"] = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        env["PERFBENCH_RUSTC"] = "unknown"
    rev = "none (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(
                ["git", "--git-dir=.git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    env["PERFBENCH_GIT_REV"] = rev
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"build failed with exit code {done.returncode}")
    target = env.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(target, "release")


def run(binary, args, env):
    done = subprocess.run([binary] + args, capture_output=True, text=True,
                          env=env, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise RuntimeError(f"{os.path.basename(binary)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{os.path.basename(binary)} printed no result")
    json.loads(lines[-1])
    return done.stdout, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    env = stamp_env()
    try:
        bindir = build(env)
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds)]
        if a.trace == 0:
            out, _ = run(os.path.join(bindir, "perfbench"), common, env)
        else:
            ref_out, ref = run(os.path.join(bindir, "perfbench"),
                               common + ["--light-only"], env)
            sys.stderr.write("untraced reference run:\n" + ref_out)
            p50 = ref["metrics"]["p50_light_ms"]["value"]
            out, _ = run(os.path.join(bindir, "perfbench-traced"),
                         common + ["--untraced-light-p50", repr(p50)], env)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
