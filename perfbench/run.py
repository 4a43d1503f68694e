#!/usr/bin/env python3
"""Outside-in benchmark of the FTPMfTS pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ingest-energy --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --self-test

The script compiles the program (src/main/scala and jobs/) and the Scala
sources under perfbench/src with the Scala compiler of the Spark
distribution the build uses, into .bench_build/ (reused while the sources
are unchanged). It then runs one benchmark JVM with a pinned heap and
collector and a pinned Spark master local[n], n = min(nproc, 4), and relays
its output.
The last line of stdout is the result JSON. Everything the run writes
stays under .bench_build/ (-XX:-UsePerfData keeps the JVMs out of /tmp).

Workloads, metrics and bounds are declared in BENCHMARK.json; the Scala
side (perfbench/src/repro/perfbench/Main.scala) documents how each metric
is measured.
"""
import argparse
import glob
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build")
JAR = os.path.join(WORK, "perfbench.jar")
JSA = os.path.join(WORK, "perfbench.jsa")
HEAP = "3g"
# A fixed young generation makes every job see collections, so that the
# after-collection heap (heap_live_peak_mb) is sampled in every job.
YOUNG = "256m"
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 600


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if home and os.path.isdir(os.path.join(home, "jars")):
        return os.path.join(home, "jars")
    # otherwise the directory the sbt build compiles against
    try:
        with open(os.path.join(ROOT, "build.sbt")) as f:
            m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
    except OSError:
        m = None
    if not m or not os.path.isdir(m.group(1)):
        fail("no Spark distribution: set SPARK_HOME")
    return m.group(1)


def sources():
    program = []
    for d in ("src/main/scala", "jobs"):
        program += glob.glob(os.path.join(ROOT, d, "**", "*.scala"), recursive=True)
    if not any(p.startswith(os.path.join(ROOT, "src", "main")) for p in program):
        fail("no program sources under src/main/scala: run from the root of the repository")
    # The DuckDB oracle needs a jar outside the Spark distribution; the
    # benchmark does not use it.
    program = [p for p in sorted(program) if "org.duckdb" not in open(p).read()]
    bench = sorted(glob.glob(os.path.join(ROOT, "perfbench", "src", "**", "*.scala"), recursive=True))
    return program, bench


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def java_cmd(jars, cores, extra):
    """The pinned benchmark JVM."""
    return (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}", "-XX:+UseG1GC", "-XX:-UsePerfData",
             "-Xlog:disable", "-Xlog:all=error:stderr",
             f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
             f"-Dlog4j2.configurationFile={os.path.join(ROOT, 'perfbench', 'log4j2.properties')}",
             "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
             f"-Dspark.sql.warehouse.dir={os.path.join(WORK, 'warehouse')}"] + extra +
            ["-cp", JAR + ":" + os.path.join(jars, "*"), "repro.perfbench.Main",
             "--cores", str(cores), "--work", WORK])


def java_env(cores):
    env = dict(os.environ, SPARK_MASTER=f"local[{cores}]",
               SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)  # the program's own default
    return env


def build(jars, program, bench, cores):
    """Compiles into one jar, then records a class-data archive from a tiny
    run of every workload so that each run's JVM and Spark start-up loads
    classes from it (start-up only: it does not change compiled code)."""
    stamp = os.path.join(WORK, "build.stamp")
    want = digest(program + bench)
    if all(os.path.exists(f) for f in (JAR, JSA, stamp)) and open(stamp).read() == want:
        return
    compiler = [glob.glob(os.path.join(jars, f"{n}-2.13.*.jar")) for n in
                ("scala-compiler", "scala-library", "scala-reflect")]
    if not all(compiler):
        fail(f"no Scala 2.13 compiler in {jars}")
    classes = os.path.join(WORK, "classes")
    for f in (classes, JAR, JSA, stamp):
        subprocess.run(["rm", "-rf", f], check=True)
    os.makedirs(classes)
    t0 = time.time()
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", ":".join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", classes, "-classpath", os.path.join(jars, "*")]
    if subprocess.run(cmd + program + bench, timeout=BUILD_LIMIT_S).returncode != 0:
        fail("compilation failed")
    with zipfile.ZipFile(JAR, "w") as z:
        for d, _, files in os.walk(classes):
            for f in sorted(files):
                z.write(os.path.join(d, f), os.path.relpath(os.path.join(d, f), classes))
    subprocess.run(["rm", "-rf", classes], check=True)
    t1 = time.time()
    train = java_cmd(jars, cores, [f"-XX:ArchiveClassesAtExit={JSA}"]) + ["--train"]
    r = subprocess.run(train, cwd=ROOT, env=java_env(cores), stdout=subprocess.DEVNULL,
                       timeout=BUILD_LIMIT_S)
    if r.returncode != 0 or not os.path.exists(JSA):
        fail("the class-data training run failed")
    with open(stamp, "w") as f:
        f.write(want)
    print(f"# perfbench built {len(program)} program and {len(bench)} benchmark sources in "
          f"{t1 - t0:.1f} s, class-data archive in {time.time() - t1:.1f} s", file=sys.stderr)


def commit(program):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "source-sha256:" + digest(program)[:16]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [f'{m["name"]}={m["unit"]}' for m in spec["end_to_end"] + spec["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        fail("--workload is required")

    jars = spark_jars()
    program, bench = sources()
    cores = min(len(os.sched_getaffinity(0)), 4)
    for d in ("tmp", "spark-local"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    build(jars, program, bench, cores)
    cmd = java_cmd(jars, cores, [f"-XX:SharedArchiveFile={JSA}"]) + ["--commit", commit(program)]
    if a.self_test:
        cmd += ["--self-test", ",".join(declared_metrics())]
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", a.trace]

    p = subprocess.Popen(cmd, cwd=ROOT, env=java_env(cores), stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    last = ""
    try:
        deadline = time.time() + (RUN_LIMIT_S * (4 if a.self_test else 1))
        signal.signal(signal.SIGALRM, lambda *_: (_ for _ in ()).throw(TimeoutError()))
        signal.alarm(max(1, int(deadline - time.time())))
        for line in p.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        rc = p.wait()
        signal.alarm(0)
    except TimeoutError:
        fail(f"benchmark did not finish within {RUN_LIMIT_S} s")
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    if rc != 0:
        sys.exit(rc)
    if a.self_test:
        return
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")


if __name__ == "__main__":
    main()
