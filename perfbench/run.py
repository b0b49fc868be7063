"""Benchmark of the properaffine command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a properaffine source tree: the package is imported
from ./src.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced run.
Details of each run go to perfbench/out/.  See perfbench/README.md.
"""

import time

START = time.perf_counter()     # before any other import: set-up is timed cold

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread, as the benchmark command also sets: host noise is already
# large on a small box, and the program's matrices are 3x3 and 5x5
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    command: str
    catalog: str
    ball: int
    n: int
    spectrum_verdict: str
    witnesses: tuple = None
    scorecard_verdicts: tuple = ()


WORKLOADS = {
    "spectrum_n1_deep": Workload(
        "spectrum", "margulis_positive_n1", 7, 1, "uniform_positive"),
    "scorecard_n1": Workload(
        "scorecard", "margulis_positive_n1", 5, 1, "uniform_positive",
        scorecard_verdicts=("consistent_affine_anosov", "insufficient_evidence")),
    "scorecard_n2": Workload(
        "scorecard", "block_n2", 1, 2, "mixed", witnesses=("a", "a⁻¹"),
        scorecard_verdicts=("inconsistent",)),
}

END_TO_END_UNITS = {"setup_s": "s", "run_ref": "ref", "peak_rss_mb": "MB",
                    "linalg_calls": "count", "alpha_max_rel_err": "ratio"}

# functions whose calls and seconds are reported, as module.function
LAYER_FUNCTIONS = (
    "group.evaluate_word", "group.validate_membership",
    "core.canonical_orientation",
    "proximal.spectral_split", "proximal.neutral_vector",
    "proximal.is_r_eps_proximal", "proximal.sample_isotropic_bank",
    "proximal.ams_cover",
    "margulis.spectrum",
    "anosov.affine_anosov_scorecard", "anosov.limit_map_samples",
)
LAYER_SECONDS_ONLY = ("anosov.transversality_matrix", "anosov.contraction_trace",
                      "reports.run_report", "reports.emit", "reports.build_rep",
                      "repcatalog.catalog", "cli.main")
LAYER_CALLS_ONLY = ("group.compose", "core.isotropic_frame",
                    "core.orthonormalize_oriented")
SELF_SECONDS = ("group.evaluate_word", "proximal.spectral_split",
                "proximal.is_r_eps_proximal", "proximal.sample_isotropic_bank")
LINALG_ROUTINES = ("svd", "qr", "eigvals", "det", "solve", "schur", "null_space",
                   "expm", "norm", "inv", "eigh", "eigvalsh")


class BenchError(Exception):
    """The benchmark cannot run here, or a program output is wrong."""


class _Capture:
    """Stand-in for sys.stdout: the CLI writes bytes to stdout.buffer."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text):
        self.buffer.write(text.encode())

    def flush(self):
        pass


def import_program():
    src = Path.cwd() / "src"
    if not (src / "properaffine" / "__init__.py").is_file():
        raise BenchError("no properaffine source tree under %s; run from the "
                         "repository root" % src)
    sys.path.insert(0, str(src))
    import properaffine.cli
    if not Path(properaffine.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError("properaffine was imported from %s, not from %s"
                         % (properaffine.cli.__file__, src))
    return properaffine.cli


def call_cli(cli, argv):
    """One CLI call; returns its output bytes or raises BenchError."""
    saved, sys.stdout = sys.stdout, _Capture()
    try:
        code = cli.main(argv)
        payload = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    if code != 0:
        raise BenchError("properaffine %s exited with %r" % (" ".join(argv), code))
    return payload


def report_digest(payload):
    """Hash of a report's JSON outside its timing block."""
    report = json.loads(payload)
    report.pop("timing")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class HostSampler:
    """Time CLI calls in units of a fixed reference kernel run during them.

    The host's speed drifts by up to a factor of two within seconds, so a
    reference timed between calls does not see the speed the call saw.  A
    SIGALRM timer instead interrupts the call every PERIOD seconds, and the
    handler runs one chunk of fixed work of the program's kind (small QR,
    Schur, SVD, eigenvalue, solve and determinant calls on 3x3 and 5x5
    matrices, driven from a Python loop that also builds tuples).  The
    program's own time is the call's wall time minus the chunks', and its
    reference time is that divided by the mean chunk time.  The matrices are
    fixed, never drawn from the workload seed.
    """

    PERIOD = 0.1

    def __init__(self):
        import numpy as np
        import scipy.linalg
        self.np, self.schur = np, scipy.linalg.schur
        rng = np.random.default_rng(20171126)
        self.mats = ([rng.normal(size=(3, 3)) for _ in range(24)]
                     + [rng.normal(size=(5, 5)) for _ in range(8)])
        self.chunks = []
        self.active = False

    def chunk(self):
        np = self.np
        t0 = time.perf_counter()
        for m in self.mats:
            q, r = np.linalg.qr(m)
            q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
            _, z, _ = self.schur(m, output="real",
                                 sort=lambda re, im: np.hypot(re, im) > 1.0)
            sv = np.linalg.svd(np.hstack([q[:, :1], z[:, 1:]]), compute_uv=False)
            np.linalg.eigvals(m)
            np.linalg.solve(m, m.T @ m)
            _ = (tuple(float(x) for x in sv), float(np.linalg.det(z)))
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        if self.active:
            self.chunks.append(self.chunk())

    def timed(self, fn):
        """Run fn(); return (its result, wall s, reference units)."""
        self.chunks = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.active = False
            signal.signal(signal.SIGALRM, previous)
        if not self.chunks:              # a call shorter than PERIOD
            self.chunks.append(self.chunk())
        program = wall - sum(self.chunks)
        return result, wall, program / statistics.mean(self.chunks)


def oracle_check(payload, document, workload):
    """Max relative alpha error, and the first failed check or None.

    The self-test runs on every report: corrupted copies must be refused.
    """
    import checks
    import oracle
    report = json.loads(payload)
    words = [tuple(e["word"]["letters"]) for e in report["spectrum"]["entries"]]
    values = oracle.word_invariants(document, words)
    max_err = max(checks.alpha_errors(report, values).values())
    try:
        checks.check_report(report, workload, values)
        checks.self_test(report, workload, values)
    except checks.CheckFailed as exc:
        return max_err, str(exc)
    return max_err, None


class Run:
    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed % 2 ** 32     # the sampler takes non-negative seeds
        self.seconds = args.seconds
        self.argv = [self.workload.command, "--catalog", self.workload.catalog,
                     "--ball", str(self.workload.ball), "--seed", str(self.seed)]
        self.attempted = 0
        self.failure = None
        self.digest = None
        self.details = {"workload": args.workload, "seed": self.seed,
                        "argv": self.argv}

    def setup(self):
        cli = import_program()
        from properaffine.reports import build_rep
        from properaffine.repcatalog import catalog
        build_rep(catalog(self.workload.catalog))
        setup_s = time.perf_counter() - START
        self.cli = cli
        self.document = json.loads(call_cli(cli, ["catalog", self.workload.catalog]))
        return setup_s

    def call(self, timer=None):
        """One checked CLI call; returns (wall s, reference units, payload).

        A call that fails ends the run (BenchError): none fails today.
        """
        self.attempted += 1
        payload, wall, units = (timer or _plain_timer)(
            lambda: call_cli(self.cli, self.argv))
        digest = report_digest(payload)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise BenchError("report differs between calls outside its timing block")
        return wall, units, payload

    def measure(self):
        """End-to-end metrics, tracing off except for the counted warm-up."""
        from layers import Instrument
        setup_s = self.setup()
        counter = Instrument(timed=False)
        try:
            payload = self.call()[2]            # warm-up, with calls counted
        finally:
            counter.remove()
        # after one call, as a user's process makes; later calls fragment the heap
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sampler = HostSampler()
        walls, units = [], []
        t_end = time.perf_counter() + self.seconds
        while not walls or time.perf_counter() < t_end:
            wall, ref, _ = self.call(sampler.timed)
            walls.append(wall)
            units.append(ref)
        max_err, self.failure = oracle_check(payload, self.document, self.workload)
        self.details.update(wall_seconds=walls, ref_units=units,
                            run_s=statistics.median(walls))
        return {"setup_s": setup_s, "run_ref": statistics.median(units),
                "peak_rss_mb": peak_mb, "linalg_calls": counter.linalg_calls(),
                "alpha_max_rel_err": max_err}

    def trace(self):
        """Per-layer metrics: traced calls alternate with untraced ones."""
        from layers import Instrument
        self.setup()
        payload = self.call()[2]                # warm-up
        plain, traced = [], []
        t_end = time.perf_counter() + self.seconds
        while not traced or time.perf_counter() < t_end:
            plain.append(self.call()[0])
            inst = Instrument(timed=True)
            try:
                self.call()
            finally:
                inst.remove()
            traced.append(layer_metrics(inst, self.workload.ball))
            if len(traced) == 1:
                write_trace(inst, self.details["workload"])
        _, self.failure = oracle_check(payload, self.document, self.workload)
        metrics = {name: statistics.median(t[name] for t in traced)
                   for name in traced[0]}
        metrics["trace.overhead_s"] = metrics["cli.main.s"] - statistics.median(plain)
        self.details.update(untraced_seconds=plain,
                            traced_seconds=[t["cli.main.s"] for t in traced])
        return metrics


def _plain_timer(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, None


def layer_metrics(inst, ball):
    """Per-layer metrics of one traced CLI call."""
    from checks import ball_count
    words = ball_count(2, ball)
    out = {}
    for f in LAYER_FUNCTIONS:
        out[f + ".calls"] = inst.calls(f)
        out[f + ".s"] = inst.seconds(f)
    for f in LAYER_SECONDS_ONLY:
        out[f + ".s"] = inst.seconds(f)
    for f in LAYER_CALLS_ONLY:
        out[f + ".calls"] = inst.calls(f)
    for f in SELF_SECONDS:
        out[f + ".self_s"] = inst.self_seconds(f)
    out["group.compose.per_word"] = inst.calls("group.compose") / words
    # splits made for certificates are counted by is_r_eps_proximal.calls
    direct = inst.calls("proximal.spectral_split") - inst.edges.get(
        ("proximal.is_r_eps_proximal", "proximal.spectral_split"), 0)
    out["proximal.spectral_split.per_word"] = direct / words
    certs = inst.calls("proximal.is_r_eps_proximal")
    out["proximal.is_r_eps_proximal.pass_ratio"] = (
        inst.outcome("proximal.is_r_eps_proximal") / certs if certs else 0.0)
    covers = inst.calls("proximal.ams_cover")
    out["proximal.ams_cover.certs_per_word"] = (
        inst.edges.get(("proximal.ams_cover", "proximal.is_r_eps_proximal"), 0)
        / (covers * words) if covers else 0.0)
    out["reports.emit.bytes"] = inst.outcome("reports.emit")
    out["linalg.calls"] = inst.linalg_calls()
    out["linalg.s"] = inst.linalg_seconds()
    out["linalg.calls_per_word"] = inst.linalg_calls() / words
    for r in LINALG_ROUTINES:
        out["linalg.%s.calls" % r] = inst.calls("linalg." + r)
    return out


def write_trace(inst, workload):
    OUT.mkdir(exist_ok=True)
    t0 = min((s[3] for s in inst.spans), default=0.0)
    trace = {
        "workload": workload,
        "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2], "outcome": v[3]}
                  for k, v in sorted(inst.stats.items())},
        "edges": [[a, b, c] for (a, b), c in sorted(inst.edges.items())],
        "spans": [[i, p, name, s - t0, e - t0] for i, p, name, s, e in inst.spans],
    }
    (OUT / ("trace-%s.json" % workload)).write_text(json.dumps(trace) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(args)
    try:
        metrics = run.trace() if args.trace else run.measure()
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    if run.failure:
        print("check failed: %s" % run.failure, file=sys.stderr)
    unit = layer_unit if args.trace else END_TO_END_UNITS.get
    result = {"correct": run.failure is None, "attempted": run.attempted,
              "failed": 0,         # a failed CLI call ends the run with code 2
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    run.details["result"] = result
    (OUT / ("run-%s-seed%d-trace%d.json" % (args.workload, run.seed, args.trace))
     ).write_text(json.dumps(run.details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("per_word") or name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
