#!/usr/bin/env python3
"""Build file of the pipeline benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) with the Scala compiler that ships in the
Spark distribution, into .bench_build/classes under the current directory,
which must be the root of a checkout. A build whose sources and toolchain
are unchanged is reused.

    python3 perfbench/build.py
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCE_DIRS = ["src/main/scala", "perfbench/src"]


def spark_jars():
    """Jars of $SPARK_HOME, else of the first Spark installation on PATH."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in filter(None, homes):
        jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
        if jars:
            return jars
    sys.exit("perfbench: no Spark jars found; set SPARK_HOME")


def sources():
    missing = [d for d in SOURCE_DIRS if not os.path.isdir(d)]
    if missing:
        sys.exit(f"perfbench: missing source directories {missing}; run from the root of a checkout")
    files = sorted(glob.glob(os.path.join(d, "**", "*.scala"), recursive=True) for d in SOURCE_DIRS)
    return [f for group in files for f in group]


def build():
    """Compile if needed; return the classpath entries to run with."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs + jars:
        digest.update(path.encode())
        if path.endswith(".scala"):
            with open(path, "rb") as f:
                digest.update(f.read())
    stamp = digest.hexdigest()
    classes = os.path.join(BUILD_DIR, "classes")
    stamp_file = os.path.join(classes, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return [classes] + jars

    staging = classes + ".new"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(jars), "scala.tools.nsc.Main",
           "-classpath", os.pathsep.join(jars), "-d", staging, "-nowarn"] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: compilation failed")
    with open(os.path.join(staging, ".stamp"), "w") as f:
        f.write(stamp)
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(staging, classes)
    return [classes] + jars


if __name__ == "__main__":
    build()
