#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the program and the benchmark
(perfbench/build.py), then runs one measured window of the workload in a
single JVM with Spark in local mode on every core. The driver heap is
SPARK_DRIVER_MEM (default 3g). The last line of standard output is the
JSON result; the exit code is non-zero if the run could not complete.
"""
import argparse
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    classpath = build.build()
    tmp = os.path.abspath(os.path.join(build.BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = ["java", "-Xmx" + os.environ.get("SPARK_DRIVER_MEM", "3g"), "-XX:+UseParallelGC",
           "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(here, "log4j2.properties"),
           "-Dfile.encoding=UTF-8",
           "-cp", os.pathsep.join(classpath), "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # A SIGTERM ends this script through the finally clause, which stops the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
