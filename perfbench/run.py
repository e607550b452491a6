"""spectower benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list        # metrics per workload; writes BENCHMARK.json
    python3 perfbench/run.py --self-test   # the checks reject wrong answers

Each op starts after the previous one ends, on a fresh input generated
from the seed, and its result is checked against a reference the engine
did not compute.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 the run measures half its time
untraced and half with spans around spectower's public functions, and
reports the per-layer metrics.  Run from the repository root: the
package is imported from ./src, never from an installed copy.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spec
import speed
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
FATAL = 2


class Api:
    """spectower's public names, looked up at call time so that the
    tracing wrappers installed later are the ones called."""

    MODULES = ("field", "matrix", "complexes", "spectral", "localsystems", "morse",
               "fibration", "documents", "cli")

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import spectower
        if not os.path.abspath(spectower.__file__).startswith(src + os.sep):
            raise ImportError("spectower was imported from %s, not from %s" % (spectower.__file__, src))
        self._mods = [importlib.import_module("spectower." + m) for m in self.MODULES]

    def __getattr__(self, name):
        for mod in self._mods:
            if hasattr(mod, name):
                return getattr(mod, name)
        raise AttributeError(name)


class InProcess:
    """A workload whose op calls the library in this process."""

    def __init__(self, name, gen, op, check, corrupt):
        self.name, self.gen, self.op_fn, self.check, self.corrupt = name, gen, op, check, corrupt

    def setup(self, seed, api):
        self.seed, self.api = seed, api

    def make(self, i):
        # the warm-up input (i < 0) is the same for every seed, so set-up
        # time does not vary with the seed
        data = self.gen(wl.rng_for(self.seed if i >= 0 else "warm-up", self.name, i))
        return data, wl.input_digest(data)

    def op(self, data, traced):
        return self.op_fn(self.api, data)

    def after_op(self, res, tracer):
        pass


class CliDocs:
    """A workload whose op is one `spectower` subprocess."""

    name = "cli-docs"

    def setup(self, seed, api):
        self.cases = wl.gen_cli(ROOT)
        self.env = wl.cli_env(ROOT)
        self.rng = wl.rng_for(seed, self.name, 0)
        self.order = []

    def make(self, i):
        if i < 0:
            case = self.cases[i % len(self.cases)]
            return case, case["digest"]
        if i >= len(self.order):
            # whole seeded rounds, so every run sees an even mix of cases
            rnd = list(range(len(self.cases)))
            self.rng.shuffle(rnd)
            self.order += rnd
        case = self.cases[self.order[i]]
        return case, case["digest"]

    def op(self, case, traced):
        return wl.cli_op(case, ROOT, self.env, traced)

    def check(self, case, res):
        return wl.check_cli(case, res)

    def corrupt(self, res):
        return wl.corrupt_cli(res)

    def after_op(self, res, tracer):
        if tracer is not None and res.get("spans"):
            tracer.merge(res["spans"])


def make_workload(name):
    if name == "tower-f2":
        return InProcess(name, wl.gen_tower, wl.tower_op, wl.check_tower, wl.corrupt_tower)
    if name == "deep-chain":
        return InProcess(name, wl.gen_chain, wl.tower_op, wl.check_tower, wl.corrupt_tower)
    if name == "fibration-q":
        return InProcess(name, wl.gen_fibration, wl.fibration_op, wl.check_fibration,
                         wl.corrupt_fibration)
    if name == "cli-docs":
        return CliDocs()
    raise ValueError("unknown workload %r" % name)


def run_op(w, i, traced=False, tracer=None):
    """Generate input i and time the op on it.
    Returns (seconds, digest, input, result, error or None)."""
    data, dig = w.make(i)
    # every op starts with no garbage left by the previous one, so the
    # collector's timing does not move cost from op to op
    gc.collect()
    if tracer is not None:
        tracer.begin_op(i)
    t0 = time.perf_counter()
    try:
        res = w.op(data, traced)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return time.perf_counter() - t0, dig, data, None, "%s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t0
    w.after_op(res, tracer)
    if tracer is not None:
        tracer.end_op()
    return dt, dig, data, res, None


def problems_of(w, data, res, error, corrupt=False):
    if error is not None:
        return [error]
    return w.check(data, w.corrupt(res) if corrupt else res)


class Phase:
    """What one closed-loop phase measured: per op, the op's time, the
    whole cycle's (input generation, op, check) and the reference chunk
    timed right after it."""

    def __init__(self):
        self.times, self.cycles, self.refs, self.digests, self.failures = [], [], [], [], []

    def scaled(self):
        return speed.scale_each(self.times, self.refs)

    def ops_per_s(self, scaled=True):
        cycles = speed.scale_each(self.cycles, self.refs) if scaled else self.cycles
        return len(cycles) / sum(cycles)


def measure(w, seconds, first, traced=False, tracer=None):
    """Closed loop for `seconds`: ops on inputs first, first+1, ..."""
    ph = Phase()
    start = time.perf_counter()
    i = first
    while True:
        t0 = time.perf_counter()
        dt, dig, data, res, error = run_op(w, i, traced, tracer)
        problems = problems_of(w, data, res, error)
        ph.cycles.append(time.perf_counter() - t0)
        gc.collect()
        ph.refs.append(speed.reference_seconds())
        ph.times.append(dt)
        ph.digests.append(dig)
        if problems:
            ph.failures.append((i, problems))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return ph


def setup(w, seed):
    """Import, input generation and one warm-up op.  The warm-up result is
    also fed to the check twice: as returned it must pass, corrupted it
    must fail.  Returns (seconds, problems)."""
    t0 = time.perf_counter()
    api = Api()
    w.setup(seed, api)
    _, _, data, res, error = run_op(w, -1)
    elapsed = time.perf_counter() - t0
    problems = ["warm-up op: %s" % p for p in problems_of(w, data, res, error)]
    if not problems and not problems_of(w, data, res, error, corrupt=True):
        problems.append("the check accepted a corrupted warm-up result")
    return elapsed, problems


def setup_probes(name, seed):
    """Set-up times of fresh interpreters, spawn to exit: (raw, scaled)."""
    raw, scaled = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
           "--seed", str(seed)]
    before = speed.reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.decode(errors="replace").strip())
        after = speed.reference_seconds()
        scaled.append(speed.scale(raw[-1], [before, after]))
        before = after
    return raw, scaled


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  With too few samples, the maximum."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def metric(name, value):
    unit = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}[name]
    return {"value": value, "unit": unit}


def write_record(kind, args, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-%s-seed%s.json" % (kind, args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def run(args):
    w = make_workload(args.workload)
    probes, probes_scaled = ([], []) if args.trace else setup_probes(args.workload, args.seed)
    setup_s, problems = setup(w, args.seed)
    if problems:
        for p in problems:
            print("fatal: " + p, file=sys.stderr)
        return FATAL
    print("workload %s seed %s seconds %s trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("setup: in-process %.4f s, fresh-interpreter probes %s"
          % (setup_s, " ".join("%.4f" % t for t in probes)))
    if args.trace:
        import tracing
        half = args.seconds / 2.0
        plain = measure(w, half, 0)
        tracer = tracing.Tracer()
        print("tracing: %d functions wrapped" % tracing.install(tracer))
        # the traced phase repeats the untraced inputs, so the overhead is
        # measured op by op on identical work
        traced = measure(w, half, 0, True, tracer)
        phases = [plain, traced]
        values = tracing.layer_metrics(tracer.sums, tracer.ops)
        for name, unit, _ in spec.PER_LAYER:
            if unit == "s":
                values[name] = speed.scale(values[name], traced.refs)
        values["trace.overhead_ratio"] = statistics.median(
            t / p for t, p in zip(traced.scaled(), plain.scaled()))
        metrics = {n: metric(n, values[n]) for n, *_ in spec.PER_LAYER}
        path = write_record("spans", args, {"ops": tracer.kept})
        print("spans: first %d traced ops written to %s" % (len(tracer.kept), os.path.relpath(path, ROOT)))
    else:
        ph = measure(w, args.seconds, 0)
        phases = [ph]
        scaled = ph.scaled()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-docs" else resource.RUSAGE_SELF
        tail_v, tail_pct, beyond = tail(scaled)
        print("op_s.tail is percentile %.1f of %d samples (%d beyond it)"
              % (tail_pct, len(scaled), beyond))
        print("raw wall clock: op_s.p50 %.6f s, op_s.tail %.6f s, ops_per_s %.6f 1/s, setup_s %.6f s;"
              " reference chunk median %.6f s (nominal %.6f s)"
              % (statistics.median(ph.times), tail(ph.times)[0], ph.ops_per_s(scaled=False),
                 statistics.median(probes), statistics.median(ph.refs), speed.NOMINAL_S))
        metrics = {
            "op_s.p50": metric("op_s.p50", statistics.median(scaled)),
            "op_s.tail": metric("op_s.tail", tail_v),
            "ops_per_s": metric("ops_per_s", ph.ops_per_s()),
            "setup_s": metric("setup_s", statistics.median(probes_scaled)),
            "peak_rss_mib": metric("peak_rss_mib", resource.getrusage(who).ru_maxrss / 1024.0),
        }
    digests = [d for ph in phases for d in ph.digests]
    failures = [f for ph in phases for f in ph.failures]
    attempted, failed = len(digests), len(failures)
    print("inputs: %d, digest of all %s" % (attempted, wl.digest(digests)))
    print("ops_failed_ratio %.6f (%d of %d)" % (failed / attempted, failed, attempted))
    for i, problems in failures[:5]:
        print("failed op %d: %s" % (i, "; ".join(problems)))
    for name, m in metrics.items():
        print("metric %-30s %.6g %s" % (name, m["value"], m["unit"]))
    write_record("run", args, {
        "metrics": metrics, "attempted": attempted, "failed": failed, "digests": digests,
        "op_s": [ph.times for ph in phases], "reference_s": [ph.refs for ph in phases],
        "setup_probes_s": probes, "setup_probes_scaled_s": probes_scaled,
    })
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def list_metrics():
    """Print every metric with its unit for every workload; write BENCHMARK.json."""
    for name, why in spec.WORKLOADS:
        print("workload %s: %s" % (name, why))
        for m, unit, better, bound in spec.END_TO_END:
            print("  end_to_end %-30s %-6s %s is better, bound %.2f" % (m, unit, better, bound))
        for m, unit, better in spec.PER_LAYER:
            print("  per_layer  %-30s %-6s %s is better" % (m, unit, better))
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(path, ROOT))
    return 0


def self_test():
    """One op per workload, checked as returned and corrupted: the first
    must pass and the second count as failed.  Exits 0 only if so."""
    ok = True
    for name, _ in spec.WORKLOADS:
        w = make_workload(name)
        w.setup(0, Api())
        _, _, data, res, error = run_op(w, 0)
        honest = problems_of(w, data, res, error)
        wrong = problems_of(w, data, res, error, corrupt=True)
        attempted, failed = 2, (1 if honest else 0) + (1 if wrong else 0)
        good = not honest and bool(wrong)
        ok = ok and good
        print("%-12s honest op: %s; corrupted op: %s; failed %d of %d -> %s"
              % (name, "; ".join(honest) or "passed", "; ".join(wrong) or "ACCEPTED",
                 failed, attempted, "ok" if good else "BROKEN"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.list:
            return list_metrics()
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            problems = setup(make_workload(args.workload), args.seed)[1]
            for p in problems:
                print(p, file=sys.stderr)
            return FATAL if problems else 0
        return run(args)
    except (ImportError, OSError, RuntimeError) as exc:
        print("fatal: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return FATAL


if __name__ == "__main__":
    sys.exit(main())
