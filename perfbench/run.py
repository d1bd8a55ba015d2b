"""extmcg benchmark: time to a verdict, share of ops decided, memory.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {acceptance,groups,cli,sweep,known-defects} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client in one process; ``cli``
runs one child process at a time.  The op list is made from the seed and
run in whole passes: at least one, and another only while it is expected
to end within ``--seconds``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object; a record of the run goes to
``perfbench/out/``.

``BENCHMARK.json`` lists acceptance, groups and cli.  ``sweep`` (the bulk
path, one 20-s pass) and ``known-defects`` (inputs that fail at the time of
writing, run once) are run by hand; README.md says why.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Per-op time limits in seconds, far above the slowest op that completes on
# this workload (README.md lists the slowest ops these were set against).
TIME_LIMIT_S = {"acceptance": 30.0, "groups": 20.0, "sweep": 60.0, "cli": 10.0,
                "known-defects": 20.0}
SETUP_REPEATS = {"acceptance": 3, "groups": 5, "sweep": 5, "cli": 5}
FLOOR_SAMPLES = 30  # cold calls per cli floor in the traced run

# The machine is shared and its speed drifts by up to 2x over tens of
# seconds, so times are scaled to a nominal speed, measured by a probe run
# next to them: reference_loop() in process, a bare `python -c pass` for
# child processes.  The nominal values are the probes' times at full speed
# on the machine the benchmark was written on (README.md).
REF_NOMINAL_S = 0.020
FLOOR_NOMINAL_S = 0.040
PROBE_EVERY_S = 0.5
PROBE_WINDOW_S = 3.0


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import extmcg from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "extmcg" / "__init__.py").is_file():
        fail(f"no extmcg package under {src}")
    sys.path.insert(0, str(src))
    import extmcg
    if not Path(extmcg.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"extmcg imported from {extmcg.__file__}, not from {src}")


def code_identity() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Measurement:
    """Attempted and failed ops, each pass's per-op latencies, and speed probes."""

    def __init__(self, probe, nominal_s: float):
        self.probe, self.nominal_s = probe, nominal_s
        self.attempted = self.failed = self.wrong = 0
        self.raw: list[list[int]] = []  # ns as measured, one list per pass
        self.at: list[list[tuple[float, float]]] = []  # when each op started and ended
        self.probes: list[tuple[float, float]] = []  # (when, probe time)
        self.failures: list[str] = []

    def speed_probe(self):
        self.probes.append((time.perf_counter(), self.probe()))

    def scaled(self) -> list[list[float]]:
        """Each pass's latencies at nominal speed: each op's time times the
        nominal probe time over the median of the probes taken while it ran
        or within PROBE_WINDOW_S of it."""
        when = [t for t, _ in self.probes]
        out = []
        for raw, at in zip(self.raw, self.at):
            row = []
            for ns, (start, end) in zip(raw, at):
                lo = bisect.bisect_left(when, start - PROBE_WINDOW_S)
                hi = bisect.bisect_right(when, end + PROBE_WINDOW_S)
                near = statistics.median(d for _, d in self.probes[lo:hi])
                row.append(ns * self.nominal_s / near)
            out.append(row)
        return out


def reference_loop() -> float:
    """Wall time of a fixed pure-Python kernel (dict, str and int work)."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        table[i & 1023] = (i * 7919) % 104_729
        acc += len(str(i)) + table.get((i * 13) & 1023, 0)
    sorted(table.values())
    return time.perf_counter() - t0


def run_passes(runner, ops, calls, seconds, limit, m: Measurement, tracer=None):
    """Run whole passes over the op list, at least one, while the next pass
    is expected to end within `seconds`.

    A speed probe runs at the start and end of each pass and after every
    PROBE_EVERY_S of ops (README.md, "Times at nominal machine speed").
    """
    from workloads import OpTimeout, check

    def on_alarm(signum, frame):
        raise OpTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not last or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        raw: list[int] = []
        at: list[float] = []
        m.speed_probe()
        since = time.perf_counter()
        for i, (op, call) in enumerate(zip(ops, calls)):
            result = error = None
            if tracer:
                tracer.op_id, tracer.active = i, True
            signal.setitimer(signal.ITIMER_REAL, limit)
            t0 = time.perf_counter_ns()
            try:
                try:
                    result = call()
                finally:
                    t1 = time.perf_counter_ns()
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    if tracer:
                        tracer.active = False
                        tracer.reset_stack()
            except OpTimeout:
                error = f"passed the {limit:g} s time limit"
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"raised {exc!r}"[:200]
            m.attempted += 1
            raw.append(t1 - t0)
            at.append((t0 / 1e9, t1 / 1e9))
            if error is None and not check(runner, op, result):
                error = "wrong answer"
                m.wrong += 1
            if error:
                m.failed += 1
                if len(m.failures) < 20:
                    m.failures.append(f"{json.dumps(op.describe())[:160]}: {error}")
            result = None  # free large results (enumerate_sp) before the next op
            if i == len(ops) - 1 or time.perf_counter() - since >= PROBE_EVERY_S:
                m.speed_probe()
                since = time.perf_counter()
        m.raw.append(raw)
        m.at.append(at)
        last = time.perf_counter() - started


def timed_child(argv, env) -> float:
    """Wall time of a child process from start to exit; a failing child stops the run."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=300)
    dt = time.perf_counter() - t0
    if proc.returncode:
        fail(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return dt


def warm_bytecode(env):
    """Write the bytecode caches of the package and the benchmark before timing."""
    timed_child([sys.executable, "-c", "import extmcg.cli, workloads"],
                dict(env, PYTHONPATH=f"{env['PYTHONPATH']}{os.pathsep}{ROOT / 'perfbench'}"))


def floor_probe(env):
    """Speed probe for child processes: a bare interpreter start."""
    return lambda: timed_child([sys.executable, "-c", "pass"], env)


def measure_setup(workload, env) -> tuple[list[float], list[float]]:
    """Set-up times as measured, and at nominal speed (floor probes on either side)."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-child", workload]
    probe = floor_probe(env)
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_REPEATS[workload]):
        t = timed_child(argv, env)
        after = probe()
        raw.append(t)
        scaled.append(t * 2 * FLOOR_NOMINAL_S / (before + after))
        before = after
    return raw, scaled


def setup_child(workload):
    """Body of one set-up measurement: import, then one smallest op of each kind."""
    load_package()
    import workloads
    runner = workloads.Runner(ROOT, cli_mode="inline")
    for op in workloads.warmup_ops(workload):
        if not workloads.check(runner, op, runner.prepare(op)()):
            fail(f"warm-up op {op.describe()} gave a wrong answer")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_child:
        return setup_child(args.setup_child)
    load_package()
    import workloads
    if args.workload not in workloads.GENERATORS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")
    OUT.mkdir(exist_ok=True)
    workload = args.workload
    ops = workloads.generate(workload, args.seed)
    digest = workloads.op_list_digest(ops)
    ident = code_identity()
    print(f"workload {workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"op list sha256 {digest}")
    print(f"commit {ident['commit']} src sha256 {ident['src_sha256'][:16]} "
          f"python {ident['python']} nproc {ident['nproc']}")
    env = workloads.child_env(ROOT)
    warm_bytecode(env)
    limit = TIME_LIMIT_S[workload]
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op_list_sha256": digest, "ops_per_pass": len(ops),
              "time_limit_s": limit, **ident}
    if workload == "known-defects":
        result = run_known_defects(workloads, ops, limit)
    elif args.trace:
        result = run_traced(workloads, workload, ops, args.seconds, limit, env, record)
    else:
        result = run_plain(workloads, workload, ops, args.seconds, limit, env, record)
    m, metrics = result
    record.update(attempted=m.attempted, failed=m.failed, wrong=m.wrong,
                  failures=m.failures, metrics=metrics)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in m.failures:
        print(f"FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"{key:42s} {value:14.6f} {unit}")
    print(f"fail_share {m.failed / m.attempted:.6f} ({m.failed}/{m.attempted}); record {OUT / name}")
    print(json.dumps({"correct": m.wrong == 0, "attempted": m.attempted, "failed": m.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_plain(workloads, workload, ops, seconds, limit, env, record):
    raw_setups, setups = measure_setup(workload, env)
    runner = workloads.Runner(ROOT, cli_mode="process")
    probe, nominal = ((floor_probe(env), FLOOR_NOMINAL_S) if workload == "cli"
                      else (reference_loop, REF_NOMINAL_S))
    try:
        warm = workloads.warmup_ops(workload)
        run_passes(runner, warm, [runner.prepare(op) for op in warm], 0, limit,
                   Measurement(probe, nominal))
        calls = [runner.prepare(op) for op in ops]
        m = Measurement(probe, nominal)
        run_passes(runner, ops, calls, seconds, limit, m)
    finally:
        runner.close()
    passes = m.scaled()
    # each op's median over the passes, then percentiles across the op list
    lat = [statistics.median(col) / 1e6 for col in zip(*passes)]
    raw = [statistics.median(col) / 1e6 for col in zip(*m.raw)]
    p90 = percentile(lat, 90)
    pass_s = [sum(p) / 1e9 for p in passes]
    peak_kb = (runner.cli_peak_kb if workload == "cli"
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    record.update(setup_s_samples=setups, raw_setup_s_samples=raw_setups,
                  pass_s_samples=pass_s, raw_pass_s_samples=[sum(p) / 1e9 for p in m.raw],
                  probe_s_samples=[d for _, d in m.probes], nominal_probe_s=nominal,
                  op_samples=len(lat),
                  samples_beyond_p90=sum(x > p90 for x in lat),
                  raw_op_ms_p50=statistics.median(raw), raw_op_ms_p90=percentile(raw, 90))
    print(f"{len(passes)} passes of {len(lat)} ops, {record['samples_beyond_p90']} "
          f"beyond p90; as measured: pass {statistics.median(record['raw_pass_s_samples']):.4f} s, "
          f"op p50 {record['raw_op_ms_p50']:.4f} ms, p90 {record['raw_op_ms_p90']:.4f} ms, "
          f"setup {statistics.median(raw_setups):.4f} s; speed probe median "
          f"{statistics.median(record['probe_s_samples']):.4f} s (nominal {nominal})")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (p90, "ms"),
        "ok_share": ((m.attempted - m.failed) / m.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return m, metrics


def run_traced(workloads, workload, ops, seconds, limit, env, record):
    from tracer import Tracer

    # cli is traced in process: cli.main(argv) with captured output
    runner = workloads.Runner(ROOT, cli_mode="inline")
    warm = workloads.warmup_ops(workload)
    run_passes(runner, warm, [runner.prepare(op) for op in warm], 0, limit,
               Measurement(reference_loop, REF_NOMINAL_S))
    calls = [runner.prepare(op) for op in ops]
    # untraced and traced passes alternate, so both see the same machine
    m = Measurement(reference_loop, REF_NOMINAL_S)
    tracer = Tracer(workloads.OpTimeout)
    deadline = time.perf_counter() + seconds
    while len(m.raw) < 2 or time.perf_counter() < deadline:
        run_passes(runner, ops, calls, 0, limit, m)
        gaps = tracer.install()
        try:
            run_passes(runner, ops, calls, 0, limit, m, tracer=tracer)
        finally:
            tracer.uninstall()
    passes = [sum(p) for p in m.scaled()]
    plain, traced = passes[0::2], passes[1::2]  # the traced pass follows each plain one
    metrics = tracer.per_pass(len(traced), sum(map(sum, m.raw[1::2])))
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics.update(cli_floors(workloads, ops, env) if workload == "cli"
                   else {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0})
    spans = OUT / f"spans-{workload}-seed{record['seed']}.tsv"
    tracer.dump(spans, gaps)
    for gap in gaps:
        print(f"trace gap: {gap}")
    record.update(untraced_pass_s=[ns / 1e9 for ns in plain],
                  traced_pass_s=[ns / 1e9 for ns in traced], trace_gaps=gaps,
                  spans_file=str(spans), spans_kept=len(tracer.spans),
                  spans_dropped=tracer.dropped)
    print(f"{len(plain)} untraced and {len(traced)} traced passes; "
          f"{len(tracer.spans)} spans kept in {spans}")
    units = {"calls": "count", "elements": "count", "letters": "count", "assoc_triples": "count",
             "cap_hits": "count", "deadline_misses": "count", "subgroup_searches": "count",
             "useful_ratio": "ratio", "coverage": "ratio", "overhead": "ratio"}
    out = {}
    for key, value in metrics.items():
        suffix = key.rsplit(".", 1)[-1]
        out[key] = (value, "ms" if suffix.endswith("_ms") else units.get(suffix, "s"))
    return m, out


def cli_floors(workloads, ops, env) -> dict:
    """Cold-process costs, interleaved per op: bare interpreter, package
    import, and the full command."""
    interp, imported, full = [], [], []
    runner = workloads.Runner(ROOT, cli_mode="process")
    try:
        for op in ops[:FLOOR_SAMPLES]:
            interp.append(timed_child([sys.executable, "-c", "pass"], env) * 1e3)
            imported.append(timed_child([sys.executable, "-c", "import extmcg.cli"], env) * 1e3)
            t0 = time.perf_counter()
            runner.run_cli_process(list(op.args[0]))
            full.append((time.perf_counter() - t0) * 1e3)
    finally:
        runner.close()
    floor, loaded = statistics.median(interp), statistics.median(imported)
    return {"cli.interpreter_ms": floor, "cli.import_ms": loaded - floor,
            "cli.command_ms": statistics.median(full) - loaded}


def run_known_defects(workloads, ops, limit):
    runner = workloads.Runner(ROOT, cli_mode="process")
    m = Measurement(reference_loop, REF_NOMINAL_S)
    try:
        run_passes(runner, ops, [runner.prepare(op) for op in ops], 0, limit, m)
    finally:
        runner.close()
    return m, {"fail_share": (m.failed / m.attempted, "ratio")}


if __name__ == "__main__":
    main()
