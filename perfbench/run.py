#!/usr/bin/env python3
"""Closed-loop benchmark of the addesigns CLI pipeline gen -> embed -> verify.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 42 --trace 0

The package is taken from the src/ directory of the checkout that holds
this file.  One client runs a workload's instances one stage after
another, each stage a fresh ``python -m addesigns.cli`` process as a
user's shell would run it, and repeats the whole pass until --seconds is
used up.  Every stage is checked against perfbench/expected.json: its exit
status, the SHA-256 of each gen/embed document, and the checked fields of
each verify report.  A stage that does not match counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes whose stages run under perfbench/trace_stage.py, and
reports the per-layer metrics of the traced ones.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the seed and every metric with its unit.
Scratch files go to .perfbench_work/ in the checkout and are removed at
the end.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

from trace_stage import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 170     # the whole run, set-up included, ends well within 180 s
SETUP_IMPORTS = 9        # timed fresh-interpreter imports, after one untimed one
REPORT_FIELDS = ("additive", "strong", "zero_sum_subsets", "failures", "label")
EMBEDDINGS = ("symmetric_strong_embedding", "cyclic_embedding",
              "pg_strong_embedding", "subspace_embedding")

END_TO_END = {
    "wall_s": "s", "gen_s": "s", "embed_s": "s", "verify_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gf.make_field.calls": "count",
    "gf.make_field.self_s": "s",
    "gf.poly_candidates": "count",
    "gf.add_code.calls": "count",
    "gf.mul_code.calls": "count",
    "geometry.pg_design.self_s": "s",
    "geometry.pg_design_cyclic.self_s": "s",
    "geometry.ag_design.self_s": "s",
    "geometry.blocks": "count",
    "geometry.ag_coset_yield": "ratio",
    "designs.validate_2design.calls": "count",
    "designs.validate_2design.self_s": "s",
    "designs.pairs_counted": "count",
    "designs.singer_diffset.self_s": "s",
    "designs.develop.self_s": "s",
    "designs.validate_difference_set.self_s": "s",
    "additivity.embed.self_s": "s",
    "additivity.verify_embedding.self_s": "s",
    "additivity.verify_strong.self_s": "s",
    "additivity.strong_subsets": "count",
    "additivity.zero_sum_found": "count",
    "additivity.strong_hit_ratio": "ratio",
    "gf.self_s": "s",
    "geometry.self_s": "s",
    "designs.self_s": "s",
    "additivity.self_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.json_bytes": "bytes",
    "trace_overhead_s": "s",
}

IMPORT_PROBE = """\
import time
start = time.perf_counter()
import addesigns.cli
print(time.perf_counter() - start)
print(addesigns.cli.__file__)
"""

StageRun = namedtuple("StageRun", "key verb wall_s profile")


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a result."""


class DeadlineExceeded(Exception):
    pass


class Pipeline:
    """Runs instances stage by stage, each stage in a fresh process.

    With `expected` set, every stage's outcome is compared with it and a
    mismatch is recorded in `failures`; with `expected` None the outcomes
    are collected in `outcomes` instead (see capture.py).  `tamper`, if
    given, edits the embedding document a verify stage reads.
    """

    def __init__(self, workdir, seed, expected, deadline, tamper=None):
        self.workdir = workdir
        self.seed = seed
        self.expected = expected
        self.deadline = deadline
        self.tamper = tamper
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures = []
        self.outcomes = {}

    def run_pass(self, instances, traced):
        runs = []
        for inst in instances:
            folder = self.workdir / inst.name
            folder.mkdir(exist_ok=True)
            for stage in inst.stages:
                runs.append(self._stage(inst.name, folder, stage, traced))
        return runs

    def _stage(self, name, folder, stage, traced):
        key = "%s/%s" % (name, stage.output)
        self.attempted += 1
        out = folder / (stage.output + ".json")
        out.unlink(missing_ok=True)
        paths = {p: folder / (p + ".json") for p in ("set", "design", "emb")}
        try:
            if stage.verb == "verify":
                paths = self._relabel(name, folder, paths)
            args, inputs = _resolve(stage.args, paths)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return self._fail(key, stage.verb, "inputs unusable: %s" % exc)
        args += ["--out", str(out)]
        spans = folder / (stage.output + ".spans.json")
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_stage.py"), str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "addesigns.cli"]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            self._fail(key, stage.verb, "run deadline reached")
            raise DeadlineExceeded()
        with open(folder / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            try:
                code = subprocess.run(cmd + args, stdout=subprocess.DEVNULL, stderr=err,
                                      env=self.env, cwd=folder, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                self._fail(key, stage.verb, "run deadline reached")
                raise DeadlineExceeded() from None
            wall_s = time.perf_counter() - start
        got = _outcome(stage.verb, code, out)
        if self.expected is None:
            self.outcomes[key] = got
        elif got != self.expected.get(key):
            detail = (folder / "stderr.txt").read_text(errors="replace").strip()[-300:]
            self.failures.append("%s: got %s, expected %s %s"
                                 % (key, got, self.expected.get(key), detail))
        profile = None
        if traced:
            profile = stage_profile(spans, wall_s)
            profile["cli.json_bytes"] = sum(p.stat().st_size for p in inputs + [out])
        return StageRun(key, stage.verb, wall_s, profile)

    def _fail(self, key, verb, why):
        """Record a stage that could not be run."""
        self.failures.append("%s: %s" % (key, why))
        return StageRun(key, verb, None, None)

    def _relabel(self, name, folder, paths):
        """Write the design and embedding with this seed's point permutation
        applied to both; the checked report fields do not depend on it."""
        design = json.loads(paths["design"].read_text())
        emb = json.loads(paths["emb"].read_text())
        v = design["v"]
        if len(emb["image"]) != v or len(design["points"]) != v:
            raise ValueError("design and embedding disagree on v")
        perm = random.Random("%s:%s" % (self.seed, name)).sample(range(v), v)
        points, image = [None] * v, [None] * v
        for i, j in enumerate(perm):
            points[j] = design["points"][i]
            image[j] = emb["image"][i]
        design["points"] = points
        design["blocks"] = [sorted(perm[x] for x in blk) for blk in design["blocks"]]
        emb["image"] = image
        if self.tamper is not None:
            self.tamper(emb)
        out = dict(paths)
        for doc, key in ((design, "design"), (emb, "emb")):
            out[key] = folder / (key + ".relabelled.json")
            out[key].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return out


def _resolve(template, paths):
    """Fill in {name} and {name.key} arguments; return them with the
    documents passed by path."""
    args, inputs = [], []
    for arg in template:
        if not (arg.startswith("{") and arg.endswith("}")):
            args.append(arg)
            continue
        name, _, field = arg[1:-1].partition(".")
        path = paths[name]
        if not field:
            if not path.is_file():
                raise FileNotFoundError("no %s document" % name)
            args.append(str(path))
            inputs.append(path)
            continue
        value = json.loads(path.read_text())[field]
        args.append(",".join(map(str, value)) if isinstance(value, list) else str(value))
    return args, inputs


def _outcome(verb, code, out):
    if not out.is_file():
        return {"exit": code, "document": None}
    if verb == "verify":
        try:
            report = json.loads(out.read_text())
        except ValueError:
            return {"exit": code, "document": "not JSON"}
        return {"exit": code, "report": {f: report.get(f) for f in REPORT_FIELDS}}
    return {"exit": code, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def stage_profile(spans_path, wall_s):
    """Per-layer totals of one traced stage.

    A span's self time is its duration minus the time its child spans
    cover.  cli.self_s is the stage's wall time minus its top-level spans:
    interpreter start, import, argument parsing, JSON and the tracer.
    """
    try:
        doc = json.loads(spans_path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError("no spans from a traced stage: %s" % exc) from None
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    top = 0.0
    for parent, _, start, end, _ in spans:
        if parent < 0:
            top += end - start
        else:
            covered[parent] += end - start
    prof = Counter(doc["counts"])
    for (_, name, start, end, facts), child in zip(spans, covered):
        span = names[name]
        self_s = end - start - child
        if self_s < -1e-6:
            raise BenchmarkError("span %s is shorter than its children" % span)
        prof[span + ".calls"] += 1
        prof[span + ".self_s"] += self_s
        prof[span.split(".")[0] + ".self_s"] += self_s
        prof.update(facts or {})
    prof["cli.self_s"] = wall_s - top
    prof["cli.import_s"] = doc["import_s"]
    accounted = sum(prof[layer + ".self_s"] for layer in LAYERS) + prof["cli.self_s"]
    if top > wall_s or abs(accounted - wall_s) > 1e-6 * (1 + len(spans)):
        raise BenchmarkError("spans of %s do not add up to its wall time" % spans_path)
    return prof


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(total):
    """The per-layer metrics of one traced pass from its summed profiles."""
    out = {name: total[name] for name in PER_LAYER}
    out["additivity.embed.self_s"] = sum(
        total["additivity.%s.self_s" % e] for e in EMBEDDINGS)
    out["geometry.ag_coset_yield"] = _ratio(
        total["geometry.ag_blocks"], total["geometry.ag_translates"])
    out["additivity.strong_hit_ratio"] = _ratio(
        total["additivity.zero_sum_found"], total["additivity.strong_subsets"])
    return out


def pass_seconds(passes):
    """Seconds per verb for one pass, each stage taken at its mean over the
    passes; "wall" is the sum over all stages.

    On a shared machine other jobs slow every stage by a share that drifts
    over seconds to minutes.  The mean uses every second the run measured;
    on recorded passes of `geometry`, the fastest or the median of a
    stage's few runs spread more from run to run.
    """
    walls, verbs = defaultdict(list), {}
    for runs in passes:
        for run in runs:
            if run.wall_s is None:
                continue
            walls[run.key].append(run.wall_s)
            verbs[run.key] = run.verb
    per_verb = Counter()
    for key, samples in walls.items():
        per_verb[verbs[key]] += statistics.fmean(samples)
    per_verb["wall"] = sum(per_verb.values())
    return per_verb


def setup_seconds(env, workdir):
    """Median seconds for a fresh interpreter to import addesigns.cli."""
    samples = []
    for i in range(SETUP_IMPORTS + 1):
        try:
            lines = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=workdir,
                                   capture_output=True, text=True, timeout=60,
                                   check=True).stdout.split("\n")
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchmarkError("cannot import addesigns.cli: %s" % exc) from None
        if not Path(lines[1]).resolve().is_relative_to(SRC):
            raise BenchmarkError("imported addesigns from %s, not %s" % (lines[1], SRC))
        if i:  # the first import may compile bytecode
            samples.append(float(lines[0]))
    return statistics.median(samples)


def measure(instances, seed, seconds, trace, expected, tamper=None):
    """Run the passes and return (result dict, lines for a reader)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        pipeline = Pipeline(workdir, seed, expected, deadline, tamper)
        setup_s = setup_seconds(pipeline.env, workdir)
        modes = (False, True) if trace else (False,)
        passes = {False: [], True: []}
        start = time.perf_counter()
        rounds = 0
        try:
            while True:
                for traced in modes:
                    passes[traced].append(pipeline.run_pass(instances, traced))
                rounds += 1
                if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
                    break
        except DeadlineExceeded:
            pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is using it
            pass
    if not all(passes[mode] for mode in modes):
        raise BenchmarkError("no pass completed: %s" % "; ".join(pipeline.failures[:3]))
    plain = pass_seconds(passes[False])
    if trace:
        values = defaultdict(list)
        for runs in passes[True]:
            total = Counter()
            for run in runs:
                total.update(run.profile or {})
            for name, value in layer_values(total).items():
                values[name].append(value)
        metrics = {name: statistics.median_low(v) for name, v in values.items()}
        metrics["trace_overhead_s"] = pass_seconds(passes[True])["wall"] - plain["wall"]
        units = PER_LAYER
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"wall_s": plain["wall"], "gen_s": plain["gen"],
                   "embed_s": plain["embed"], "verify_s": plain["verify"],
                   "setup_s": setup_s, "peak_rss_mb": rss_kb / 1024}
        units = END_TO_END
    failed = len(pipeline.failures)
    result = {
        "correct": failed == 0,
        "attempted": pipeline.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    lines = ["seed %d  trace %d  passes %d  stages attempted %d"
             % (seed, trace, rounds, pipeline.attempted)]
    lines += ["failed %s" % why for why in pipeline.failures]
    lines += ["%-40s %.6g %s" % (name, m["value"], m["unit"])
              for name, m in result["metrics"].items()]
    lines.append("%-40s %.6g (%d of %d stages failed)"
                 % ("error_rate", failed / pipeline.attempted, failed, pipeline.attempted))
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "addesigns" / "cli.py").is_file():
        sys.stderr.write("perfbench: no addesigns package under %s\n" % SRC)
        return 2
    instances = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(instances)
    expected = json.loads((BENCH / "expected.json").read_text())
    try:
        result, lines = measure(instances, args.seed, args.seconds, args.trace, expected)
    except BenchmarkError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print("workload %s  instances %s" % (args.workload, " ".join(i.name for i in instances)))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
