"""Build file of the benchmark.

Compiles the library (src/main/scala), the job entry points (jobs/) and the
benchmark (perfbench/src) into .bench_build/ with the Scala compiler that
ships in Spark's jars, the same Scala version build.sbt names. A stamp of the
sources' hash skips the compile when nothing changed. Needs only a JDK and a
Spark distribution (SPARK_HOME, or spark-submit on PATH).

    python3 perfbench/build.py          # build, print the classpath
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")
PROGRAM = ["src/main/scala", "jobs"]
BENCH = ["perfbench/src"]
TESTS = ["perfbench/test"]


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler: set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return exe


def sources(dirs):
    files = []
    for d in dirs:
        if not os.path.isdir(os.path.join(ROOT, d)):
            raise BuildError(f"missing source directory {d}/ (run from a checkout of the repository)")
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            files += [os.path.join(base, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def compile_into(name, files, classpath, salt=""):
    """Compile `files` into .bench_build/<name> unless its stamp matches."""
    out = os.path.join(OUT, name)
    stamp = digest(files) + salt
    stamp_file = os.path.join(out, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return out, stamp
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler_cp = os.path.join(spark_jars(), "*")
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", compiler_cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", classpath, "-d", tmp] + files
    if subprocess.run(cmd, stdin=subprocess.DEVNULL).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"compile of {name} failed")
    with open(os.path.join(tmp, ".stamp"), "w") as fh:
        fh.write(stamp)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out, stamp


def build(tests=False):
    """Build the program and the benchmark; returns (classpath, sources stamp)."""
    jars = os.path.join(spark_jars(), "*")
    classes, stamp = compile_into("classes", sources(PROGRAM + BENCH), jars)
    cp = [classes, jars]
    if tests:
        test_classes, _ = compile_into("test-classes", sources(TESTS), os.pathsep.join(cp), stamp)
        cp.insert(0, test_classes)
    return os.pathsep.join(cp), stamp


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
