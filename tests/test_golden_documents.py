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
NAMES = ["pg441", "ag432", "pg351c", "pg251-symmetric", "pg251c-subspace", "pg331-pg", "fano"]


# the report fields perfbench/run.py checks
REPORT_FIELDS = ("additive", "strong", "zero_sum_subsets", "failures", "label")


def _instances():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    every = [inst for group in workloads.WORKLOADS.values() for inst in group]
    return {inst.name: inst for inst in every + workloads.SELFCHECK}


INSTANCES = _instances()
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_documents_match_golden_digests(tmp_path, name):
    stages = INSTANCES[name].stages
    assert stages
    for stage in stages:
        # {design} stands for the document an earlier stage wrote
        args = [str(tmp_path / (a[1:-1] + ".json")) if a.startswith("{") else a
                for a in stage.args]
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
            args = [str(tmp_path / (a[1:-1] + ".json")) if a.startswith("{") else a
                    for a in stage.args]
            out = tmp_path / (stage.output + ".json")
            assert main(args + ["--out", str(out)]) == 0
            doc, want = _load(str(out)), json.loads(out.read_text())
            key = "blocks" if "blocks" in want else "image"
            assert isinstance(doc[key], np.ndarray), (name, stage.output)
            assert {k: v.tolist() if k == key else v for k, v in doc.items()} == want
