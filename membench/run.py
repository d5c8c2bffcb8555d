#!/usr/bin/env python3
"""Build memnet and its benchmark from source, then run one workload.

    python3 membench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a memnet checkout (any working directory works; the
benchmark always runs with the checkout root as its working directory).
Builds `memnet` and `membench` in release mode into $CARGO_TARGET_DIR
(default `.bench_build` at the checkout root), both under the memnet
workspace's `[profile.release]` (the host-speed reference,
`membench-refkernel`, keeps fixed settings of its own), clears every
`MEMNET_*` variable, and runs the `membench` binary, whose last stdout
line is the JSON result. Exits non-zero without a result when the memnet
sources are missing or a build fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["run_long", "sweep_cold", "sweep_warm", "serve_mix"]
REFKERNEL_PROFILE = {"opt-level": 3, "codegen-units": 1, "debug-assertions": False,
                     "overflow-checks": False}


def describe(cmd, cwd):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def toml_value(value):
    """A TOML literal for a value read from a Cargo.toml."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise ValueError(f"unsupported profile value {value!r}")


def profile_config(prefix, table):
    """`--config` arguments that set every entry of a profile table."""
    args = []
    for key, value in table.items():
        part = key if re.fullmatch(r"[A-Za-z0-9_-]+", key) else json.dumps(key)
        if isinstance(value, dict):
            args += profile_config(f"{prefix}.{part}", value)
        else:
            args += ["--config", f"{prefix}.{part}={toml_value(value)}"]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        print(f"run.py: no memnet sources at {ROOT}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMNET_")}
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    # membench is a workspace of its own, so cargo would build the memnet
    # crates it links under membench's profile; it has none, and gets the
    # memnet workspace's instead.
    with open(ROOT / "Cargo.toml", "rb") as f:
        release = tomllib.load(f).get("profile", {}).get("release", {})
    try:
        profile = profile_config("profile.release", release)
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    # The host-speed reference keeps settings of its own, so a change to
    # memnet's profile moves memnet's times and not the reference's.
    profile += profile_config("profile.release.package.membench-refkernel", REFKERNEL_PROFILE)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "--bin", "memnet"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")] + profile,
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2

    sha = describe(["git", "rev-parse", "HEAD"], ROOT)
    rustc = describe(["rustc", "--version"], ROOT)
    settings = ",".join(profile[1::2]) or "default"
    print(f"membench-build git_sha={sha} rustc={rustc.replace(' ', '_')} "
          f"profile={settings.replace(' ', '')}", flush=True)

    cmd = [str(target / "release" / "membench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--memnet", str(target / "release" / "memnet")]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
