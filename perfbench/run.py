"""Benchmark for subgrad: three seeded workloads and a traced run per layer.

    python3 perfbench/run.py --workload {calculus,sampling,corpus,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload is a closed loop with one caller:

* calculus - exact claim checks and blunt-minimality certificates, in-process;
* sampling - the float probes at d in {1, 2, 4, 6, 7}, in-process;
* corpus   - a seeded scenario directory through ``subgrad corpus --jobs
  <nproc> --json``, then one ``subgrad run`` per malformed input, each a
  child process.

``--trace 0`` times whole blocks of items until ``--seconds`` have passed and
reports the end-to-end metrics.  ``--trace 1`` runs block 0 once untraced and
twice traced, checks that both traced runs count the same work, and reports
the per-layer metrics.  Every item's output is checked; the last line of
stdout is the JSON result.  Metric names and units come from BENCHMARK.json.

Times are reported at a fixed reference machine speed (see ``gauge.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import Gauge, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("calculus", "sampling", "corpus")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
CONTRACT_EXITS = (0, 1, 2, 3)


class Tally:
    """Attempts, failures (exceptions, exits outside the contract) and
    wrong outputs of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run_item(self, item, label: str, gauge: Gauge) -> tuple[float, float]:
        """Run and check one item; return its (raw, scaled) latency."""
        import inputs

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = item.run()
        except Exception as exc:  # an item that raises is a failed operation
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"failed: {label} {item.kind} d={item.dim}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return elapsed, elapsed * gauge.factor()
        elapsed = time.perf_counter() - start
        scaled = elapsed * gauge.factor()
        try:
            item.check(result)
        except inputs.WrongOutput as exc:
            self.wrong.append(f"{label} {item.kind} d={item.dim}: {exc}")
        return elapsed, scaled


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_metrics(latencies: list[float], work_s: float, attempted: int) -> dict:
    import numpy as np

    ms = np.array(latencies) * 1000.0
    return {
        "items_per_s": attempted / work_s,
        "p50_ms": float(np.percentile(ms, 50)),
        "p90_ms": float(np.percentile(ms, 90)),
    }


# ---------------------------------------------------------------------------
# In-process workloads: calculus and sampling
# ---------------------------------------------------------------------------


def make_block(workload: str, seed: int, block: int):
    import inputs

    return (inputs.calculus_block if workload == "calculus" else inputs.sampling_block)(seed, block)


def inprocess_setup(workload: str, seed: int, tally: Tally) -> float:
    """Imports, input generation and one warm-up item (scaled time)."""
    gauge = Gauge()
    start = time.perf_counter()
    import inputs  # noqa: F401  (numpy, then the library on first use)
    import subgrad  # noqa: F401

    block = make_block(workload, seed, 0)
    item = block[0]
    tally.attempted += 1
    try:
        item.check(item.run())
    except inputs.WrongOutput as exc:
        tally.wrong.append(f"warm-up {item.kind} d={item.dim}: {exc}")
    return (time.perf_counter() - start) * gauge.factor()


def setup_in_children(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def inprocess_timed(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    setups = [inprocess_setup(workload, seed, tally)] + setup_in_children(workload, seed)
    latencies: list[float] = []
    gauge = Gauge()
    start = time.perf_counter()
    block = 0
    while block == 0 or time.perf_counter() - start < seconds:
        for item in make_block(workload, seed, block):
            latencies.append(tally.run_item(item, f"block {block}", gauge)[1])
        block += 1
    metrics = latency_metrics(latencies, sum(latencies), len(latencies))
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
    return metrics, tally


def inprocess_traced(workload: str, seed: int) -> tuple[dict, Tally, list[str]]:
    import tracing

    tally = Tally()
    inprocess_setup(workload, seed, tally)
    problems: list[str] = []

    gauge = Gauge()

    def one_pass(label: str, block: list) -> tuple[float, float]:
        raw = scaled = 0.0
        for i, item in enumerate(block):
            tracer.set_item(i)
            r, s = tally.run_item(item, label, gauge)
            raw, scaled = raw + r, scaled + s
        return raw, scaled

    # Fresh objects for every pass: polyhedra cache their canonical form.
    blocks = [make_block(workload, seed, 0) for _ in range(3)]
    tracer = tracing.Tracer()
    untraced_s = one_pass("untraced", blocks[0])
    tracer.install(tracing.targets())
    try:
        walls, raws = [], []
        for label, block in (("traced A", blocks[1]), ("traced B", blocks[2])):
            tracer.reset()
            walls.append(one_pass(label, block))
            raws.append(tracer.raw())
            if label == "traced A":
                tracer.dump(OUT / f"spans-{workload}-seed{seed}.npz")
    finally:
        tracer.uninstall()
    problems += compare_counts(raws)
    if raws[0]["_self_total_s"] > walls[0][0]:
        problems.append(f"self times sum to {raws[0]['_self_total_s']} s, more than the traced wall {walls[0][0]} s")
    return tracing.layer_metrics(raws[0], walls[0][1] / untraced_s[1]), tally, problems


def compare_counts(raws: list[dict]) -> list[str]:
    import tracing

    a, b = (tracing.deterministic_counts(r) for r in raws)
    diff = sorted(k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0))
    return [f"traced runs disagree on {k}: {a.get(k, 0)} vs {b.get(k, 0)}" for k in diff]


# ---------------------------------------------------------------------------
# corpus: the command line as a child process
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Corpus:
    """A scenario directory and the CLI calls of one pass over it."""

    def __init__(self, seed: int, block: int, root: Path):
        import inputs

        self.root = root
        shutil.rmtree(root, ignore_errors=True)
        self.expected, self.malformed = inputs.write_corpus(seed, block, root)
        self.report = root / "report.json"

    def child(self, mode: str, tag: str, args: list[str]) -> tuple[subprocess.CompletedProcess, float, dict, float]:
        """One CLI process: its scaled wall time, its report (per-scenario
        times scaled) and the scale, from the kernel runs the child made."""
        report = self.root / f"child-{tag}.json"
        report.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), mode, str(report), "--", *args],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        wall = time.perf_counter() - start
        # A child that wrote no report crashed before its own code ran.
        info = json.loads(report.read_text()) if report.exists() else {}
        factor = scale(*info["ref_s"]) if "ref_s" in info else 1.0
        info["item_s"] = [t * factor for t in info.get("item_s", [])]
        return proc, wall * factor, info, factor

    def warm_up(self, tally: Tally) -> float:
        """One CLI call on a valid scenario; returns its scale."""
        tally.attempted += 1
        proc, _, _, factor = self.child("time", "warm-up", ["run", str(self.root / "scenarios" / "subdiff_pa_a.json")])
        if proc.returncode != 0:
            tally.wrong.append(f"warm-up scenario exited {proc.returncode}: {proc.stderr[-300:]}")
        return factor

    def one_pass(self, mode: str, label: str, tally: Tally, exits: dict) -> tuple[float, list[float], list[dict], bytes]:
        """Run the corpus and each malformed file once; check every exit."""
        walls, latencies, infos = 0.0, [], []
        self.report.unlink(missing_ok=True)
        proc, wall, info, _ = self.child(mode, f"{label}-corpus", [
            "corpus", str(self.root / "scenarios"), "--jobs", str(nproc()), "--json", str(self.report)])
        walls += wall
        latencies += info.get("item_s", [])
        infos.append(info)
        tally.attempted += len(self.expected)
        report = self.report.read_bytes() if self.report.exists() else b""
        if crashed(proc) or not report:
            tally.failed += len(self.expected)
            print(f"failed: {label} corpus run crashed: {proc.stderr[-300:]}", file=sys.stderr)
        else:
            for row in json.loads(report)["scenarios"]:
                code, want = row["exit"], self.expected[row["name"]]
                exits[code] = exits.get(code, 0) + 1
                if code not in CONTRACT_EXITS:
                    tally.failed += 1
                elif code != want:
                    tally.wrong.append(f"{label} {row['name']}: exit {code}, expected {want}")
            want = max_severity(self.expected.values())
            if proc.returncode != want:
                tally.wrong.append(f"{label} corpus exit {proc.returncode}, expected {want}")
        for name, want in self.malformed.items():
            proc, wall, info, _ = self.child(mode, f"{label}-{Path(name).stem}",
                                             ["run", str(self.root / "malformed" / name)])
            walls += wall
            latencies += info.get("item_s", [])
            infos.append(info)
            tally.attempted += 1
            exits[proc.returncode] = exits.get(proc.returncode, 0) + 1
            if crashed(proc):
                tally.failed += 1
            elif proc.returncode != want:
                tally.wrong.append(f"{label} {name}: exit {proc.returncode}, expected {want}")
        return walls, latencies, infos, report


def crashed(proc: subprocess.CompletedProcess) -> bool:
    """An uncaught exception, or an exit code outside the contract."""
    return proc.returncode not in CONTRACT_EXITS or "Traceback (most recent call last)" in proc.stderr


def max_severity(codes) -> int:
    codes = set(codes)
    return next((c for c in (1, 3, 2) if c in codes), 0)


def corpus_setup(seed: int, k: int, tally: Tally) -> tuple[Corpus, float]:
    """Writing the scenario directory, then one warm-up CLI call, scaled as
    that call (the writing takes a few milliseconds)."""
    start = time.perf_counter()
    corpus = Corpus(seed, 0, OUT / f"corpus-seed{seed}-setup{k}")
    factor = corpus.warm_up(tally)
    return corpus, (time.perf_counter() - start) * factor


def corpus_timed(seed: int, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    built = [corpus_setup(seed, k, tally) for k in range(SETUP_REPEATS)]
    corpus = built[0][0]
    for other, _ in built[1:]:
        shutil.rmtree(other.root, ignore_errors=True)
    work_s, latencies = 0.0, []
    attempted_before = tally.attempted
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        if passes:
            shutil.rmtree(corpus.root, ignore_errors=True)
            corpus = Corpus(seed, passes, OUT / f"corpus-seed{seed}-pass{passes}")
        wall, lat, _, _ = corpus.one_pass("time", f"pass{passes}", tally, {})
        work_s += wall
        latencies += lat
        passes += 1
    metrics = latency_metrics(latencies, work_s, tally.attempted - attempted_before)
    metrics["setup_s"] = statistics.median(t for _, t in built)
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
    shutil.rmtree(corpus.root, ignore_errors=True)
    return metrics, tally


def corpus_traced(seed: int) -> tuple[dict, Tally, list[str]]:
    import tracing

    tally = Tally()
    corpus, _ = corpus_setup(seed, 0, tally)
    problems: list[str] = []
    untraced_s, _, _, plain = corpus.one_pass("time", "untraced", tally, {})
    walls, raws, reports = [], [], []
    for label in ("tracedA", "tracedB"):
        exits: dict = {}
        wall, _, infos, report = corpus.one_pass("trace", label, tally, exits)
        if not all(info.get("accounting_ok") for info in infos):
            problems.append(f"{label}: a child's self times exceed its wall time")
        raw = tracing.merge(info.get("raw", {}) for info in infos)
        for code in CONTRACT_EXITS:
            raw[f"cli.exit.{code}"] = exits.get(code, 0)
        walls.append(wall)
        raws.append(raw)
        reports.append(report)
    for info_file in corpus.root.glob("child-tracedA-*.npz"):
        shutil.copy(info_file, OUT / f"spans-corpus-seed{seed}-{info_file.stem.split('-', 2)[2]}.npz")
    problems += compare_counts(raws)
    if not (plain == reports[0] == reports[1]):
        problems.append("corpus JSON differs between the untraced and traced runs")
    shutil.rmtree(corpus.root, ignore_errors=True)
    return tracing.layer_metrics(raws[0], walls[0] / untraced_s), tally, problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    if workload == "corpus":
        values, tally, *rest = corpus_traced(seed) if trace else corpus_timed(seed, seconds)
    else:
        values, tally, *rest = inprocess_traced(workload, seed) if trace else inprocess_timed(workload, seed, seconds)
    if rest:
        problems += rest[0]
    metrics = {}
    for m in spec_metrics(trace):
        # A layer the workload never enters (the CLI, in-process) counts 0.
        value = values.get(m["name"], 0) if trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in tally.wrong + problems:
        print(f"wrong: {line}", file=sys.stderr)
    return {
        "correct": not tally.wrong and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def print_table(workload: str, result: dict) -> None:
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "subgrad" / "__init__.py").is_file():
        print(f"error: no subgrad source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        print(json.dumps({"setup_s": inprocess_setup(args.workload, args.seed, Tally())}))
        return 0
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
            print_table(workload, results[workload])
        print(json.dumps(results))
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
