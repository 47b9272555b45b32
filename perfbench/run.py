#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-storm --seed 1 --seconds 30 --trace 0

Builds the Go program in perfbench/ from source into .bench_build/ (the Go
build cache goes there too, so nothing is written outside the checkout),
then runs it with the same arguments. The program's last line of standard
output is the result JSON. Exits non-zero, without a result, when the
repository's sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print("perfbench: run from the repository root: go.mod or internal/ is missing",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = run_child(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                      env=env, stdout=sys.stderr)
    if built != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run_child([binary] + sys.argv[1:], cwd=root, env=env)


def run_child(argv, **kw):
    """Run argv to completion; a SIGTERM or SIGINT sent to this script is
    passed on to the child, which is always waited for."""
    child = subprocess.Popen(argv, **kw)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for s, h in old.items():
            signal.signal(s, h)


if __name__ == "__main__":
    sys.exit(main())
