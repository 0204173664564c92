"""The gen, embed and verify outcomes of the benchmark's instances.

The instances, the SHA-256 digests of their documents and the checked
fields of their verify reports are read from perfbench/workloads.py and
perfbench/expected.json, so a change to any of them fails here as well
as in a benchmark run.  The verify stages run on the documents as
generated, without the benchmark's point relabelling.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from addesigns.cli import _load, main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the report fields perfbench/run.py checks
REPORT_FIELDS = ("additive", "strong", "zero_sum_subsets", "failures", "label")


def _instances():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    every = [inst for group in workloads.WORKLOADS.values() for inst in group]
    return {inst.name: inst for inst in every + workloads.SELFCHECK}


INSTANCES = _instances()
NAMES = list(INSTANCES)
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def _resolve(args, folder):
    """The stage's arguments, with {name} standing for the path of the
    document an earlier stage wrote and {name.key} for a field of it
    (lists are comma-joined)."""
    out = []
    for arg in args:
        if not arg.startswith("{"):
            out.append(arg)
            continue
        name, _, key = arg[1:-1].partition(".")
        path = folder / (name + ".json")
        value = json.loads(path.read_text())[key] if key else path
        out.append(",".join(map(str, value)) if isinstance(value, list) else str(value))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_documents_match_golden_digests(tmp_path, name):
    stages = INSTANCES[name].stages
    assert stages
    for stage in stages:
        args = _resolve(stage.args, tmp_path)
        out = tmp_path / (stage.output + ".json")
        want = EXPECTED["%s/%s" % (name, stage.output)]
        code = main(args + ["--out", str(out)])
        if stage.verb == "verify":
            report = json.loads(out.read_text())
            got = {"exit": code, "report": {f: report.get(f) for f in REPORT_FIELDS}}
            assert got == want, stage.args
        else:
            assert code == want["exit"]
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"], stage.args


def test_reader_returns_json_with_arrays_for_every_golden_document(tmp_path):
    for name in NAMES:
        for stage in INSTANCES[name].stages:
            if stage.verb == "verify":
                continue
            out = tmp_path / (stage.output + ".json")
            assert main(_resolve(stage.args, tmp_path) + ["--out", str(out)]) == 0
            doc, want = _load(str(out)), json.loads(out.read_text())
            if "set" in want:  # a difference set holds no matrix
                assert doc == want, (name, stage.output)
                continue
            key = "blocks" if "blocks" in want else "image"
            assert isinstance(doc[key], np.ndarray), (name, stage.output)
            assert {k: v.tolist() if k == key else v for k, v in doc.items()} == want
