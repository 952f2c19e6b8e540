#!/usr/bin/env python3
"""Run the benchmark from the repository root.

    python3 perfbench/run.py --workload search-sparse --seed 42 --seconds 30 --trace 0

Builds the program and the benchmark if their sources changed (build.py), then
runs one JVM in local mode on min(4, cores) cores. The JVM prints notes, every
metric by name with its unit, and as its last line the JSON result. Exits
non-zero without a result when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# What spark-submit adds for Spark on Java 17 (launcher.JavaModuleOptions).
JAVA17_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions", "--add-modules=jdk.incubator.vector"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]

MAX_CORES = 4
HEAP = "3g"
# A run must end within 180 s; the JVM is killed a little before.
TIMEOUT_S = 170


def git_sha():
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    try:
        classpath, stamp = build.build()
        java = build.java()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")

    cores = max(1, min(MAX_CORES, len(os.sched_getaffinity(0))))
    scratch = os.path.join(build.OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [java, f"-Xmx{HEAP}", "-XX:-UsePerfData"] + JAVA17_OPTS + [
        f"-Dspark.master=local[{cores}]",
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={scratch}",
        f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
        f"-Djava.io.tmpdir={scratch}",
        f"-Dlog4j2.configurationFile={os.path.join(build.ROOT, 'perfbench', 'log4j2.properties')}",
        f"-Dperfbench.git={git_sha()}",
        f"-Dperfbench.sources={stamp}",
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seconds", str(args.seconds), "--trace", args.trace,
    ] + (["--seed", str(args.seed)] if args.seed is not None else [])

    env = dict(os.environ, SPARK_LOCAL_DIRS=scratch)
    # On SIGTERM, unwind through the `finally` below so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdin=subprocess.DEVNULL, env=env)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {TIMEOUT_S} s, killed", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
