#!/usr/bin/env python3
"""Run the unit tests of the benchmark's own helpers (no Spark session needed).

    python3 perfbench/test.py
"""
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

try:
    classpath, _ = build.build(tests=True)
    java = build.java()
except build.BuildError as e:
    sys.exit(f"perfbench: {e}")
sys.exit(subprocess.run([java, "-XX:-UsePerfData", "-cp", classpath, "repro.perfbench.HelpersTest"],
                        stdin=subprocess.DEVNULL).returncode)
