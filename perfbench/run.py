#!/usr/bin/env python3
"""End-to-end benchmark of ViewSeeker's Algorithm 1 over HTTP.

    python3 perfbench/run.py --workload cold_create --seed 1 --seconds 12 --trace 0

Run from the repository root.  Builds the `viewseeker` CLI and the
benchmark client into $CARGO_TARGET_DIR (default `.bench_build`),
generates the pinned 1M-row table once, starts fresh `viewseeker serve`
(and, for routed_label_loop, `viewseeker route`) processes, lets the C++
client drive the timed closed loop, and prints one JSON result line.
`--trace 1` instead runs the traced in-process replay that reports the
per-layer metrics.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cold_create", "alpha_refine", "routed_label_loop")
TABLE_ROWS = 1000000
TABLE_SHA256 = "beb8278c6e65d69fc882f9450ea54c0fcfadce3cf798dd028cb36add7613f256"
SETUP_REPS = 7
READY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_logged(cmd, log_path):
    with open(log_path, "ab") as out:
        result = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-20:]
        raise BenchError(f"{' '.join(map(str, cmd))} failed:\n" + "\n".join(tail))


def build(bdir):
    """Configures once, then builds the two targets (a no-op when fresh)."""
    cmake_dir = bdir / "cmake"
    log_path = bdir / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no CMakeLists.txt at the repository root: nothing to benchmark")
    if not (cmake_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_logged(["cmake", "--build", str(cmake_dir), "--target", "viewseeker_tool",
                "perfbench_client", "-j", str(min(4, os.cpu_count() or 1))], log_path)
    tool = cmake_dir / "viewseeker" / "tools" / "viewseeker"
    client = cmake_dir / "perfbench_client"
    for binary in (tool, client):
        if not binary.is_file():
            raise BenchError(f"build produced no {binary}")
    return tool, client


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def ensure_table(tool, bdir):
    """Generates the pinned table once per build directory."""
    table = bdir / "data" / "big.vst"
    stamp = bdir / "data" / "big.vst.sha256"
    if table.is_file() and stamp.is_file() and stamp.read_text().strip() == TABLE_SHA256:
        return table
    table.parent.mkdir(parents=True, exist_ok=True)
    partial = table.with_suffix(".partial.vst")
    run_logged([str(tool), "generate", "--dataset=big", f"--rows={TABLE_ROWS}",
                f"--out={partial}"], bdir / "build.log")
    digest = sha256(partial)
    if digest != TABLE_SHA256:
        partial.unlink()
        raise BenchError(f"generated table digest {digest} != pinned {TABLE_SHA256}")
    partial.replace(table)
    stamp.write_text(TABLE_SHA256 + "\n")
    return table


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Cluster:
    """The server processes of one set-up: shards (and a router)."""

    def __init__(self, tool, table, workload, work_dir):
        self.procs = []
        self.shard_ports = []
        self.front_port = None
        shards = 2 if workload == "routed_label_loop" else 1
        cmds = []
        for i in range(shards):
            port = free_port()
            self.shard_ports.append(port)
            durability = work_dir / f"shard{i}"
            durability.mkdir(parents=True)
            cmd = [str(tool), "serve", f"--table={table}", f"--port={port}",
                   f"--durability-dir={durability}", "--heal-interval=0"]
            if workload == "alpha_refine":
                cmd.append("--degraded-alpha=0.1")
            if shards > 1:
                cmd.append(f"--shard-name=shard{i}")
            cmds.append(cmd)
        if shards > 1:
            self.front_port = free_port()
            shard_list = ",".join(f"shard{i}=127.0.0.1:{p}"
                                  for i, p in enumerate(self.shard_ports))
            cmds.append([str(tool), "route", f"--shards={shard_list}",
                         f"--port={self.front_port}", "--probe-interval=0"])
        else:
            self.front_port = self.shard_ports[0]
        self.started = time.perf_counter()
        for cmd in cmds:
            self.procs.append(subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                               stderr=subprocess.STDOUT))

    def wait_ready(self):
        """Seconds from launch until every process reports it is listening."""
        selector = selectors.DefaultSelector()
        for proc in self.procs:
            os.set_blocking(proc.stdout.fileno(), False)
            selector.register(proc.stdout, selectors.EVENT_READ, [proc, b""])
        pending = len(self.procs)
        deadline = self.started + READY_TIMEOUT_S
        while pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError("servers did not become ready")
            for key, _ in selector.select(remaining):
                proc, seen = key.data
                chunk = key.fileobj.read() or b""
                if not chunk and proc.poll() is not None:
                    raise BenchError(f"server exited during set-up: {seen.decode(errors='replace')}")
                seen += chunk
                key.data[1] = seen
                if b"listening on" in seen:
                    selector.unregister(key.fileobj)
                    pending -= 1
        elapsed = time.perf_counter() - self.started
        selector.close()
        return elapsed

    def peak_rss_mb(self):
        total_kb = 0
        for proc in self.procs:
            with open(f"/proc/{proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def result_line(client_stdout):
    lines = [l for l in client_stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("client printed no result")
    return json.loads(lines[-1])


def run_timed(args, tool, client, table, work_dir):
    cmd = [str(client), "run", f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--table={table}"]
    if args.perturb:
        cmd.append(f"--perturb={args.perturb}")
    if args.min_iterations is not None:
        cmd.append(f"--min-iterations={args.min_iterations}")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    clusters = []
    try:
        prepared = proc.stdout.readline()
        if not prepared.startswith("PREPARED"):
            raise BenchError(f"client did not prepare: {prepared!r}")
        log(prepared.strip())
        # Set up several times; the median is setup_s, the last set-up
        # (fresh processes) serves the run.
        setups = []
        for rep in range(SETUP_REPS):
            cluster = Cluster(tool, table, args.workload, work_dir / f"setup{rep}")
            clusters.append(cluster)
            setups.append(cluster.wait_ready())
            if rep + 1 < SETUP_REPS:
                cluster.stop()
        cluster = clusters[-1]
        ports = " ".join(str(p) for p in [cluster.front_port] + cluster.shard_ports)
        out, _ = proc.communicate(f"ports {ports}\n", timeout=CLIENT_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"client exited with {proc.returncode}")
        result = result_line(out)
        rss = cluster.peak_rss_mb()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for c in clusters:
            c.stop()
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    metrics.update(result["metrics"])
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    result["metrics"] = metrics
    return result


def run_traced(args, client, table, work_dir):
    cmd = [str(client), "trace", f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--table={table}", f"--work-dir={work_dir}",
           f"--spans-out={build_dir() / 'spans' / (args.workload + '.json')}"]
    (build_dir() / "spans").mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CLIENT_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"traced client exited with {proc.returncode}")
    return result_line(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", default="",
                        help="self-test: corrupt the answer transcript before the checks")
    parser.add_argument("--min-iterations", type=int, default=None,
                        help="iterations a run measures at least (default 1000)")
    args = parser.parse_args()

    bdir = build_dir()
    work_dir = bdir / "runs" / str(os.getpid())
    try:
        tool, client = build(bdir)
        table = ensure_table(tool, bdir)
        if work_dir.exists():
            shutil.rmtree(work_dir)
        work_dir.mkdir(parents=True)
        if args.trace:
            result = run_traced(args, client, table, work_dir)
        else:
            result = run_timed(args, tool, client, table, work_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        log(f"error: {error}")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in result.get("errors", []):
        log(f"check failed: {line}")
    if "info" in result:
        log(f"info: {json.dumps(result['info'])}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
