import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from addesigns import additivity, chunks, designs, geometry
from addesigns.cli import _emit, _load, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, *argv):
    return main(list(argv))


def src_env(**env):
    """This process's environment with this checkout's src/ first on the
    path and the variables `env` set, or unset where None."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)), **env)
    return {key: value for key, value in env.items() if value is not None}


def python(*args, timeout=60, text=True, **env):
    """Run a fresh interpreter in `src_env(**env)`."""
    return subprocess.run([sys.executable, *args], env=src_env(**env), capture_output=True,
                          text=text, timeout=timeout)


def read(path):
    return json.loads(path.read_text())


def test_gen_dev_13(tmp_path):
    out = tmp_path / "d.json"
    assert main(["gen", "dev", "--v", "13", "--set", "0,1,3,9", "--out", str(out)]) == 0
    doc = read(out)
    assert doc["v"] == 13 and doc["k"] == 4 and doc["lambda"] == 1
    assert len(doc["blocks"]) == 13


def test_gen_pg133(tmp_path):
    out = tmp_path / "pg.json"
    assert main(["gen", "pg", "--n", "3", "--q", "3", "--d", "1", "--out", str(out)]) == 0
    doc = read(out)
    assert doc["v"] == 40 and len(doc["blocks"]) == 130 and doc["lambda"] == 1


def test_gen_paley7_is_development_of_124(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "paley", "--v", "7", "--out", str(out)]) == 0
    doc = read(out)
    assert doc["v"] == 7 and len(doc["blocks"]) == 7
    assert [1, 2, 4] in doc["blocks"]
    assert [2, 3, 5] in doc["blocks"]  # translate by 1


@pytest.mark.parametrize("argv, params", [
    (["gen", "dev", "--v", "13", "--set", "0,1,3,9"], (13, 4, 1)),
    (["gen", "singer", "--n", "2", "--q", "4"], (21, 5, 1)),
    (["gen", "paley", "--v", "43"], (43, 21, 10)),
], ids=["dev", "singer", "paley"])
def test_gen_development_counts_no_pairs(capsys, argv, params):
    # the difference-set certificate gives the parameters of a development
    with mock.patch.object(designs, "validate_2design", side_effect=AssertionError("counted")):
        assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["v"], doc["k"], doc["lambda"]) == params and len(doc["blocks"]) == doc["v"]


def test_gen_stdout(capsys):
    assert main(["gen", "paley", "--v", "7", "--format", "diffset"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"v": 7, "set": [1, 2, 4]}


def test_embed_cyclic_golden_meta(tmp_path):
    ds = tmp_path / "ds.json"
    emb = tmp_path / "emb.json"
    assert main(["gen", "dev", "--v", "13", "--set", "0,1,3,9",
                 "--format", "diffset", "--out", str(ds)]) == 0
    assert main(["embed", "cyclic", str(ds), "--p", "3",
                 "--poly", "1,2,0,1", "--out", str(emb)]) == 0
    doc = read(emb)
    assert doc["meta"]["sigma_-1"] == [0, 0, 0]
    assert doc["meta"]["sigma_1"] == [0, 0, 2]
    assert doc["meta"]["sign"] == -1


@pytest.mark.parametrize("argv", [
    ["gen", "singer", "--n", "2", "--q", "2"],
    ["embed", "cyclic", "{ds}", "--p", "2"],
    ["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--points", "cyclic"],
], ids=["gen-singer", "embed-cyclic", "gen-pg-cyclic"])
@pytest.mark.parametrize("poly, message", [
    ("1,1", "NotPrimitivePolynomial: polynomial must be monic of degree 3\n"),
    ("1,0,1,0", "NotPrimitivePolynomial: root of GF(2^3; 1,0,1,0) does not have order 7\n"),
], ids=["degree", "order"])
def test_a_refused_field_polynomial_exits_1(tmp_path, capsys, argv, poly, message):
    # each leaf builds GF(2^3): Singer(2, 2), the Fano set in EA(2^3), PG(2, 2)
    ds = tmp_path / "ds.json"
    assert main(["gen", "dev", "--v", "7", "--set", "1,2,4", "--format", "diffset",
                 "--out", str(ds)]) == 0
    argv = [a.format(ds=ds) for a in argv]
    assert main(argv + ["--poly", poly, "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out.json").exists()


def test_embed_subspace_pg133(tmp_path):
    design = tmp_path / "pg.json"
    emb = tmp_path / "emb.json"
    assert main(["gen", "pg", "--n", "3", "--q", "3", "--d", "1",
                 "--points", "cyclic", "--poly", "1,0,0,1,2",
                 "--out", str(design)]) == 0
    assert main(["embed", "subspace", str(design), "--q", "3",
                 "--poly", "1,0,0,1,2", "--out", str(emb)]) == 0
    doc = read(emb)
    assert [0, 1, 2, 1] in doc["image"]
    assert doc["group"] == {"m": 3, "t": 4}


def test_embed_subspace_of_no_pg_point_count_exits_2(tmp_path, capsys):
    design = tmp_path / "fano.json"  # v = 7, which is [3]_2 but no [m]_3
    assert main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)]) == 0
    rc, err = _exit_and_error(capsys, ["embed", "subspace", str(design), "--q", "3"])
    assert (rc, err) == (2, "error: 7 is not the point count of any PG(m-1,3)\n")


def readme_commands():
    """The addesigns lines of README's sh example block, in order."""
    block = re.search(r"```sh\n(# the projective plane.*?)```", (ROOT / "README.md").read_text(),
                      re.S).group(1)
    return [line.split()[1:] for line in block.splitlines() if line.startswith("addesigns ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        want = 1 if argv == ["verify", "plane3.json", "plane3.emb.json", "--strong"] else 0
        assert (main(argv), argv) == (want, argv), capsys.readouterr().err


def test_embed_symmetric_rejects_nonsymmetric(tmp_path, capsys):
    design = tmp_path / "pg.json"
    assert main(["gen", "pg", "--n", "3", "--q", "2", "--d", "1",
                 "--out", str(design)]) == 0
    rc = main(["embed", "symmetric", str(design)])
    assert rc == 1
    assert "NotSymmetric" in capsys.readouterr().err


def test_verify_roundtrip_fano_strong(tmp_path):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    report = tmp_path / "report.json"
    assert main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1",
                 "--out", str(design)]) == 0
    assert main(["embed", "symmetric", str(design), "--out", str(emb)]) == 0
    assert main(["verify", str(design), str(emb), "--strong",
                 "--out", str(report)]) == 0
    doc = read(report)
    assert doc["strong"] == "pass" and doc["zero_sum_subsets"] == 7


def test_verify_smooth_exits_1_on_strong(tmp_path):
    design = tmp_path / "d.json"
    ds = tmp_path / "ds.json"
    emb = tmp_path / "emb.json"
    main(["gen", "dev", "--v", "13", "--set", "0,1,3,9", "--out", str(design)])
    main(["gen", "dev", "--v", "13", "--set", "0,1,3,9",
          "--format", "diffset", "--out", str(ds)])
    main(["embed", "cyclic", str(ds), "--p", "3", "--poly", "1,2,0,1",
          "--out", str(emb)])
    assert main(["verify", str(design), str(emb)]) == 0
    assert main(["verify", str(design), str(emb), "--strong"]) == 1


def test_verify_mismatched_files_exit_2(tmp_path):
    fano = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    other = tmp_path / "pg.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(fano)])
    main(["embed", "symmetric", str(fano), "--out", str(emb)])
    main(["gen", "pg", "--n", "3", "--q", "2", "--d", "1", "--out", str(other)])
    assert main(["verify", str(other), str(emb)]) == 2


def test_verify_cap_skip_exit_2(tmp_path, capsys):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    main(["embed", "symmetric", str(design), "--out", str(emb)])
    rc = main(["verify", str(design), str(emb), "--strong", "--cap", "5"])
    assert rc == 2
    out = capsys.readouterr()
    assert json.loads(out.out)["strong"] == "skipped"


def test_verify_cap_skip_names_the_estimate(tmp_path, capsys):
    design, emb = _fano_documents(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(design), str(emb), "--strong", "--cap", "19"]) == 2
    assert capsys.readouterr().err == "strong check skipped: estimated work exceeds cap\n"


def test_verify_strong_pg134_under_the_default_cap(tmp_path, capsys):
    # v = 85, k = 5: C(85,5) = 3.3e7 exceeded the old cap on C(v,k)
    design, emb, report = tmp_path / "pg.json", tmp_path / "emb.json", tmp_path / "r.json"
    assert main(["gen", "pg", "--n", "3", "--q", "4", "--d", "1", "--out", str(design)]) == 0
    assert main(["embed", "pg", "--n", "3", "--q", "4", "--d", "1", "--out", str(emb)]) == 0
    assert main(["verify", str(design), str(emb), "--strong", "--out", str(report)]) == 0
    doc = read(report)
    assert len(read(design)["blocks"]) == 357
    assert doc["strong"] == "pass" and doc["zero_sum_subsets"] == 357
    assert capsys.readouterr().err == ""


def test_outputs_are_bit_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        main(["gen", "singer", "--n", "2", "--q", "3", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_strong_is_deterministic(tmp_path):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    main(["embed", "symmetric", str(design), "--out", str(emb)])
    for report in (r1, r2):
        assert main(["verify", str(design), str(emb), "--strong", "--out", str(report)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_jobs_flag_is_rejected(tmp_path, capsys):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    main(["embed", "symmetric", str(design), "--out", str(emb)])
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(design), str(emb), "--strong", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_design_validated_once_per_verify(tmp_path, monkeypatch):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    main(["embed", "symmetric", str(design), "--out", str(emb)])
    calls = []
    original = designs.validate_2design

    def counting(d):
        calls.append(d.v)
        return original(d)

    monkeypatch.setattr(designs, "validate_2design", counting)
    assert main(["verify", str(design), str(emb)]) == 0
    assert main(["embed", "symmetric", str(design)]) == 0
    assert calls == [7, 7]


def test_verify_wrong_claimed_lambda_exits_1(tmp_path, capsys):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    main(["embed", "symmetric", str(design), "--out", str(emb)])
    doc = read(design)
    doc["lambda"] = 2
    design.write_text(json.dumps(doc))
    assert main(["verify", str(design), str(emb)]) == 1
    assert "NotTwoDesign" in capsys.readouterr().err


def test_verify_strong_modulus_2_62_runs_the_check(tmp_path, capsys):
    # the Fano plane's strong embedding in Z_2^7, scaled by 2^61 into
    # Z_(2^62)^7, keeps every zero sum
    design, emb = _fano_documents(tmp_path)
    doc = read(emb)
    doc["group"]["m"] = 2 ** 62
    doc["image"] = [[x * 2 ** 61 for x in row] for row in doc["image"]]
    emb.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    rc, err = _exit_and_error(capsys, ["verify", str(design), str(emb), "--strong",
                                       "--out", str(report)])
    assert (rc, err) == (0, "")
    assert read(report)["strong"] == "pass" and read(report)["zero_sum_subsets"] == 7


MERSENNE_61 = str(2 ** 61 - 1)  # a prime = 3 (mod 4): trial division takes minutes


@pytest.mark.parametrize("argv", [
    ["gen", "pg", "--n", "12", "--q", "2", "--d", "6"],
    ["gen", "pg", "--n", "12", "--q", "2", "--d", "6", "--points", "cyclic"],
    ["gen", "ag", "--n", "12", "--q", "2", "--d", "6"],
    ["gen", "pg", "--n", "2", "--q", MERSENNE_61, "--d", "1"],
], ids=["pg", "pg-cyclic", "ag", "pg-q-2^61"])
def test_oversized_subspace_design_exits_2(capsys, argv):
    # about 10^13 blocks, or 2^122 lines of PG(2,q): refused before any
    # allocation, and before q is factored
    start = time.perf_counter()
    rc, err = _exit_and_error(capsys, argv)
    assert rc == 2 and err.startswith("error: ") and "bytes of memory" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["embed", "subspace", "{design}", "--q", "0"],
    ["embed", "subspace", "{design}", "--q", "-1"],
    ["embed", "subspace", "{design}", "--q", "1"],
    ["embed", "subspace", "{design}", "--q", "6"],
    ["gen", "pg", "--n", "2", "--q", "1", "--d", "1"],
    ["gen", "ag", "--n", "2", "--q", "1", "--d", "1"],
    ["embed", "pg", "--n", "2", "--q", "1", "--d", "1"],
    ["gen", "pg", "--n", "2", "--q", "-3", "--d", "1"],
    ["embed", "pg", "--n", "2", "--q", "-2", "--d", "1"],
], ids=["subspace-q0", "subspace-q-1", "subspace-q1", "subspace-q6", "gen-pg-q1", "gen-ag-q1",
        "embed-pg-q1", "gen-pg-q-3", "embed-pg-q-2"])
def test_a_q_that_is_not_a_prime_power_is_not_prime(tmp_path, argv):
    # a fresh process with a time limit: a q <= 1 once looped forever in
    # the search for m with [m]_q = v
    design = tmp_path / "pg.json"  # PG_1(2,3), v = 13
    assert main(["gen", "pg", "--n", "2", "--q", "3", "--d", "1", "--points", "cyclic",
                 "--out", str(design)]) == 0
    done = python("-m", "addesigns.cli", *[a.format(design=design) for a in argv])
    assert done.returncode == 1 and done.stderr.startswith("NotPrime: "), done.stderr


@pytest.mark.parametrize("argv, message", [
    (["gen", "paley", "--v", "1000000007"], "Paley(1000000007) has 1000000007 residues"),
    (["gen", "paley", "--v", MERSENNE_61], "residues, 100 bytes each, beyond"),
    (["gen", "singer", "--n", "2", "--q", MERSENNE_61], "refusing table construction"),
], ids=["paley-1e9", "paley-2^61", "singer-2^61"])
def test_oversized_field_inputs_exit_2_at_once(monkeypatch, capsys, argv, message):
    # 8 GiB of memory, whatever the machine has: the squares of Z_(10^9+7)
    # would take about 100 GB
    monkeypatch.setattr(chunks.os, "sysconf", {"SC_PHYS_PAGES": 2 ** 21, "SC_PAGE_SIZE": 4096}.get)
    start = time.perf_counter()
    rc, err = _exit_and_error(capsys, argv)
    assert rc == 2 and err.startswith("error: ") and message in err
    assert time.perf_counter() - start < 5


def test_paley_development_beyond_memory_exits_2(monkeypatch, capsys):
    # 16 MiB of memory: the set of Paley(10007) takes about 1 MB, its
    # development 10007 blocks of 5003 points, about 250 MB
    monkeypatch.setattr(chunks.os, "sysconf", {"SC_PHYS_PAGES": 2 ** 12, "SC_PAGE_SIZE": 4096}.get)
    rc, err = _exit_and_error(capsys, ["gen", "paley", "--v", "10007"])
    assert rc == 2 and err.startswith(
        "error: the development of DifferenceSet(10007, 5003, 2501) has 10007 blocks")
    assert main(["gen", "paley", "--v", "10007", "--format", "diffset"]) == 0
    assert len(json.loads(capsys.readouterr().out)["set"]) == 5003


def test_embed_cyclic_huge_prime_is_refused_before_primality(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    main(["gen", "dev", "--v", "13", "--set", "0,1,3,9", "--format", "diffset", "--out", str(ds)])
    start = time.perf_counter()
    rc, err = _exit_and_error(capsys, ["embed", "cyclic", str(ds), "--p", MERSENNE_61])
    assert rc == 1 and err.startswith("BadPrime: ") and time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["gen", "pg", "--n", "3", "--q", "5", "--d", "1", "--points", "cyclic"],
    ["gen", "singer", "--n", "2", "--q", "3"],
], ids=["pg-cyclic", "singer"])
def test_trace_stage_counts_the_scalar_field_calls(tmp_path, argv):
    # perfbench/trace_stage.py wraps FieldSpec.add_code and mul_code for
    # --trace 1; the constructions themselves make no scalar call
    spans = tmp_path / "spans.json"
    done = python(str(ROOT / "perfbench" / "trace_stage.py"), str(spans), "--",
                  *argv, "--out", str(tmp_path / "out.json"), timeout=120)
    assert done.returncode == 0, done.stderr
    assert read(spans)["counts"] == {"gf.add_code.calls": 0, "gf.mul_code.calls": 0}


# modules a stage never needs, each of which raises its peak RSS: logging
# with traceback and string 0.4-0.5 MB, numpy.fft alone 0.38-0.53 MB
UNLOADED = ("logging", "numpy.fft", "numpy.ma", "numpy.random", "numpy.polynomial")


@pytest.fixture(scope="module")
def loaded_by_every_verb(tmp_path_factory):
    """Which of UNLOADED one process has loaded after running every verb."""
    script = """
import json, os, sys
from addesigns.cli import main
os.chdir(sys.argv[1])
for argv in (
    ["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", "pg.json"],
    ["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--points", "cyclic", "--out", "pgc.json"],
    ["gen", "singer", "--n", "2", "--q", "2", "--out", "dev.json"],
    ["gen", "singer", "--n", "2", "--q", "2", "--format", "diffset", "--out", "ds.json"],
    ["gen", "paley", "--v", "7", "--out", "paley.json"],
    ["embed", "cyclic", "ds.json", "--p", "2", "--out", "emb.json"],
    ["embed", "subspace", "pgc.json", "--q", "2", "--out", "sub.json"],
    ["verify", "dev.json", "emb.json", "--strong", "--out", "report.json"],
    ["info", "emb.json"],
):
    assert main(argv) == 0, argv
print(json.dumps([name for name in sys.argv[2:] if name in sys.modules]))
"""
    done = python("-c", script, str(tmp_path_factory.mktemp("verbs")), *UNLOADED)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_verb_imports_logging(loaded_by_every_verb):
    # the two DEBUG records go through logging only where the caller has
    # imported it, so a CLI process never pays for its import
    assert "logging" not in loaded_by_every_verb


def test_no_verb_loads_the_optional_numpy_submodules(loaded_by_every_verb):
    # numpy loads these only on first use; an FFT difference count or a
    # numpy.ma set routine would give back the peak RSS the stages saved.
    # difference_counts correlates by FFT only from v = designs._FFT_FROM,
    # above every benchmark instance (Paley(10007) is the largest)
    assert loaded_by_every_verb == []


def test_logging_imported_after_the_package_gets_both_debug_records():
    script = """
from addesigns import additivity, geometry
import logging
records = []
handler = logging.Handler()
handler.emit = records.append
logger = logging.getLogger("addesigns")
logger.addHandler(handler)
logger.setLevel(logging.DEBUG)
design = geometry.pg_design(2, 2, 1)
additivity.verify_strong(design, additivity.symmetric_strong_embedding(design))
for r in records:
    print(r.name, r.levelname, r.funcName, r.getMessage())
"""
    done = python("-c", script)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("addesigns DEBUG make_field make_field p=2 n=1 candidates=")
    assert lines[1].startswith("addesigns DEBUG verify_strong verify_strong v=7 k=3 ")


# -- a CLI process: its exit and its BLAS threads ---------------------------


def test_stdout_bytes_of_a_process_match_the_file_and_main(tmp_path, capsys):
    # os._exit skips the interpreter's own flush, so run() must flush stdout
    argv = ["gen", "pg", "--n", "3", "--q", "3", "--d", "1"]
    done = python("-m", "addesigns.cli", *argv, text=False)
    out = tmp_path / "pg.json"
    assert python("-m", "addesigns.cli", *argv, "--out", str(out)).returncode == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout == out.read_bytes() == capsys.readouterr().out.encode()


@pytest.fixture(scope="module")
def process_documents(tmp_path_factory):
    """PG_1(3,3) under `embed pg` and PG_1(2,5) with cyclic points under
    `embed subspace`, written in process."""
    folder = tmp_path_factory.mktemp("process")
    for argv in (["gen", "pg", "--n", "3", "--q", "3", "--d", "1", "--out", "{dir}/pg.json"],
                 ["embed", "pg", "--n", "3", "--q", "3", "--d", "1", "--out", "{dir}/pg-emb.json"],
                 ["gen", "pg", "--n", "2", "--q", "5", "--d", "1", "--points", "cyclic",
                  "--out", "{dir}/pgc.json"],
                 ["embed", "subspace", "{dir}/pgc.json", "--q", "5",
                  "--out", "{dir}/pgc-emb.json"]):
        assert main([a.format(dir=folder) for a in argv]) == 0
    return folder


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "{dir}/pg.json", "{dir}/pg-emb.json", "--strong", "--cap", "5"], 2,
     "strong check skipped: estimated work exceeds cap\n"),
    (["verify", "{dir}/pgc.json", "{dir}/pgc-emb.json", "--strong"], 1, ""),
    (["gen", "pg", "--n", "2", "--q", "2"], 2,
     "addesigns gen pg: error: the following arguments are required: --d\n"),
], ids=["cap-skip", "strong-fail", "missing-flag"])
def test_a_process_exits_with_the_status_of_main(process_documents, argv, code, err):
    done = python("-m", "addesigns.cli", *[a.format(dir=process_documents) for a in argv])
    assert done.returncode == code and done.stderr.endswith(err), done.stderr
    if code == 1:
        assert done.stderr == "" and json.loads(done.stdout)["strong"] == "fail"


@pytest.mark.skipif(os.name != "posix", reason="a closed pipe raises EPIPE on POSIX")
def test_a_closed_stdout_pipe_exits_2():
    proc = subprocess.Popen([sys.executable, "-m", "addesigns.cli", "gen", "pg", "--n", "3",
                             "--q", "3", "--d", "1"], env=src_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()  # before the process writes a byte
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_a_process_without_stdout_writes_its_file_and_exits_0(tmp_path):
    # with descriptor 1 closed the interpreter sets sys.stdout to None
    out = tmp_path / "pg.json"
    done = subprocess.run([sys.executable, "-m", "addesigns.cli", "gen", "pg", "--n", "2",
                           "--q", "2", "--d", "1", "--out", str(out)], env=src_env(),
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60)
    assert done.returncode == 0 and done.stderr == b""
    assert read(out)["v"] == 7


BLAS_PROBE = """
import os
import addesigns
import numpy
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(tasks, os.environ["OPENBLAS_NUM_THREADS"])
"""


def test_importing_the_package_first_keeps_numpy_to_one_thread():
    done = python("-c", BLAS_PROBE, OPENBLAS_NUM_THREADS=None)
    assert done.returncode == 0, done.stderr
    tasks, value = done.stdout.split()
    if tasks == "None":
        pytest.skip("no /proc/self/task to count the threads of")
    assert (tasks, value) == ("1", "1")


def test_a_preset_openblas_thread_count_wins():
    done = python("-c", BLAS_PROBE, OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[1] == "2"


def test_info(tmp_path, capsys):
    design = tmp_path / "fano.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    capsys.readouterr()
    assert main(["info", str(design)]) == 0
    assert "2-(7,3,1)" in capsys.readouterr().out


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.json")]) == 2


def test_gen_ag(tmp_path):
    out = tmp_path / "ag.json"
    assert main(["gen", "ag", "--n", "2", "--q", "3", "--d", "1", "--out", str(out)]) == 0
    doc = read(out)
    assert doc["v"] == 9 and len(doc["blocks"]) == 12


@pytest.mark.parametrize("argv,build", [
    (["gen", "pg", "--n", "2", "--q", "3", "--d", "1"], lambda: geometry.pg_design(2, 3, 1)),
    (["embed", "pg", "--n", "2", "--q", "3", "--d", "1"],
     lambda: additivity.pg_strong_embedding(2, 3, 1)),
])
def test_emitted_bytes_match_json_dumps(tmp_path, capsys, argv, build):
    doc = build().to_dict()
    want = (json.dumps(doc, indent=2, sort_keys=True, default=lambda a: a.tolist()) + "\n").encode()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == want
    out = tmp_path / "doc.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want


# -- every document type round-trips through _emit and json ---------------

META = {"v": st.integers(0, 10 ** 6), "name": st.text(max_size=5),
        "poly": st.lists(st.integers(-3, 3), max_size=4)}


@st.composite
def design_documents(draw):
    """A design of up to 6 blocks, possibly none or of no points each, or
    the validated development of a small difference set."""
    if draw(st.booleans()):
        v, elems = draw(st.sampled_from([(7, [0, 1, 3]), (11, [1, 3, 4, 5, 9]),
                                         (13, [0, 1, 3, 9])]))
        return designs.develop(designs.validate_difference_set(v, elems))
    v = draw(st.integers(1, 9))
    k, b = draw(st.integers(0, v)), draw(st.integers(0, 6))
    blocks = [draw(st.permutations(range(v)))[:k] for _ in range(b)]
    return designs.Design(v, np.array(blocks, dtype=np.int64).reshape(b, k))


@st.composite
def embeddings(draw):
    m, t, v = draw(st.integers(2, 2 ** 62)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-2 ** 63, 2 ** 63 - 1)
    image = draw(st.lists(st.lists(entries, min_size=t, max_size=t), min_size=v, max_size=v))
    meta = draw(st.fixed_dictionaries({}, optional=META))
    return additivity.Embedding(m, image, draw(st.text(max_size=8)), meta)


def reports():
    pair = st.tuples(st.integers(0, 50), st.lists(st.integers(0, 2 ** 40), max_size=3))
    return st.builds(additivity.Report, st.booleans(), st.booleans(),
                     st.sampled_from(["pass", "fail", "skipped"]),
                     st.none() | st.integers(0, 10 ** 9), st.integers(0, 10 ** 6),
                     st.lists(pair.map(list), max_size=3),
                     st.sampled_from([None, "strict", "almost-strict"]))


def difference_sets():
    sets = [(7, [0, 1, 3]), (13, [0, 1, 3, 9]), (21, [3, 6, 7, 12, 14])]
    return st.sampled_from(sets).map(lambda s: designs.validate_difference_set(*s))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=design_documents() | embeddings() | reports() | difference_sets(),
       budget=st.integers(1, 2000) | st.just(chunks.BUDGET))
def test_every_document_round_trips_through_emit(tmp_path, obj, budget):
    # a small budget writes the rows a few at a time
    doc = obj.to_dict()
    want = json.dumps(doc, indent=2, sort_keys=True, default=lambda a: a.tolist()) + "\n"
    stdout = io.StringIO()
    out = tmp_path / "doc.json"
    with mock.patch.object(chunks, "BUDGET", budget):
        with contextlib.redirect_stdout(stdout):
            _emit(doc, None)
        _emit(doc, str(out))
    assert stdout.getvalue() == want
    assert out.read_bytes() == want.encode()
    parsed = json.loads(want)
    if isinstance(obj, designs.Design):
        back = designs.Design.from_dict(parsed)
        assert (back.v, back.points, back.k, back.lam) == (obj.v, obj.points, obj.k, obj.lam)
        assert back.blocks.tolist() == obj.blocks.tolist()
    elif isinstance(obj, additivity.Embedding):
        back = additivity.Embedding.from_dict(parsed)
        assert (back.m, back.t, back.kind, back.meta) == (obj.m, obj.t, obj.kind, obj.meta)
        assert back.image.dtype == obj.image.dtype and np.array_equal(back.image, obj.image)
    elif isinstance(obj, designs.DifferenceSet):
        back = designs.DifferenceSet.from_dict(parsed)
        assert (back.v, back.elems, back.lam) == (obj.v, obj.elems, obj.lam)
    else:
        assert parsed == doc


# -- the reader returns what json.loads returns, with arrays for matrices ---

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | INT64 | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)
# bools, floats, integers beyond int64, nested lists and what else json holds
ODD_ENTRIES = (st.booleans() | st.floats(allow_nan=False) | st.integers(2 ** 63, 2 ** 70)
               | st.integers(-2 ** 70, -2 ** 63 - 1) | st.lists(st.integers(0, 3), max_size=2)
               | st.none() | st.text(max_size=2))


@st.composite
def matrices(draw):
    """Rows of one length with entries from one int64 range, sometimes
    with one entry made odd, or ragged and empty rows."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.lists(INT64 | ODD_ENTRIES, max_size=3) | ODD_ENTRIES, max_size=4))
    b, k = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    lo, hi = draw(st.sampled_from([(0, 1), (0, 300), (-128, 127), (-2 ** 40, 2 ** 40),
                                   (-2 ** 63, 2 ** 63 - 1)]))
    rows = [[draw(st.integers(lo, hi)) for _ in range(k)] for _ in range(b)]
    if b and k and draw(st.integers(0, 2)) == 0:
        rows[draw(st.integers(0, b - 1))][draw(st.integers(0, k - 1))] = draw(ODD_ENTRIES)
    elif b and draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, b - 1))] = draw(ODD_ENTRIES)
    return rows


def _is_matrix(value):
    return (type(value) is list and value and {list} == set(map(type, value))
            and len(set(map(len, value))) == 1 and value[0] != []
            and {int} == {type(x) for row in value for x in row}
            and all(-2 ** 63 <= x < 2 ** 63 for row in value for x in row))


@st.composite
def document_texts(draw):
    """The text of an object with a "blocks" or "image" matrix and up to
    four other keys, which may repeat, each value with its own indentation;
    or the text of a value of any kind."""
    if draw(st.integers(0, 4)) == 0:
        return json.dumps(draw(matrices() | JSON_VALUES))
    keys = st.sampled_from(["blocks", "image", "v", "points", "meta"]) | st.text(max_size=3)
    values = matrices() | JSON_VALUES | st.builds(dict, blocks=matrices())
    pairs = draw(st.lists(st.tuples(keys, values), max_size=draw(st.sampled_from([0, 4]))))
    pairs.insert(draw(st.integers(0, len(pairs))),
                 (draw(st.sampled_from(["blocks", "image"])), draw(matrices())))
    indent = st.sampled_from([None, 0, 2, "\t"])
    return "{%s}" % ",".join("\n %s: %s" % (json.dumps(key), json.dumps(value, indent=draw(indent)))
                             for key, value in pairs)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=document_texts(), data=st.data(),
       budget=st.integers(1, 3000) | st.sampled_from([1, 100, 200]))
def test_reader_matches_json_loads(tmp_path, text, data, budget):
    # a small budget decodes the rows a few at a time, one at most at 200
    # damage lands anywhere, or at a bracket, comma or colon, or just after
    damage = data.draw(st.sampled_from(["none", "truncate", "insert", "delete"]))
    marks = [i for i, c in enumerate(text) if c in "[]{},:"] or [0]
    cut = data.draw(st.integers(0, len(text))
                    | st.sampled_from(marks).flatmap(lambda i: st.sampled_from([i, i + 1])))
    if damage == "truncate":
        text = text[:cut]
    elif damage == "insert":
        # or a space that is not JSON whitespace
        junk = st.sampled_from(list('[]{},:"-0 1e.\\tn')) | st.sampled_from("\x0b\x0c\xa0\u2028")
        text = text[:cut] + data.draw(junk) + text[cut:]
    elif damage == "delete":
        text = text[:cut] + text[cut + 1:]
    _assert_read_as_json(tmp_path, text, budget)


@pytest.mark.parametrize("text", [
    '{"blocks": [[1] [2]]}', '{"blocks": [[1]x[2]]}', '{"blocks": [[1],, [2]]}',
    '{"blocks": [[1], [2],]}', '{"blocks": [[1], [2]] ]}', '{"blocks": [[1], [2]\n]  }',
    '{"blocks": [[1],\x0c[2]]}', '{"blocks": [[1]\x0c, [2]]}', '{"blocks": [[1], [2]\xa0]}',
    '{"blocks": [[1], 5, [2]]}', '{"blocks": [[1], null]}', '{"blocks": [[1], {"a": 2}]}',
    '{"blocks": [[1], [[2]]]}', '{"blocks": [[1], ["]]"]]}', '{"blocks": [[1], [2]}',
    '{"blocks": [[1], [2]], "x": [[3]]}', '{"blocks": [[1], 5], "x": [[3]]}',
    '{"image": [[1, 2], [3]], "blocks": [[1], [2]], "blocks": [[3]]}',
    '{"blocks": [[-9223372036854775809], [1]]}', '{"blocks": [[1e3], [1]]}',
], ids=range(20))
@pytest.mark.parametrize("budget", [1, chunks.BUDGET])
def test_reader_matches_json_loads_where_rows_meet(tmp_path, text, budget):
    _assert_read_as_json(tmp_path, text, budget)


def _assert_read_as_json(tmp_path, text, budget):
    """_load on a file of text gives json.loads's value, with arrays for
    the matrices, or raises its exception with its message."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    try:
        want = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        with pytest.raises(type(exc)) as got:
            with mock.patch.object(chunks, "BUDGET", budget):
                _load(str(path))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    with mock.patch.object(chunks, "BUDGET", budget):
        doc = _load(str(path))
    if not isinstance(want, dict):
        assert repr(doc) == repr(want)
        return
    assert list(doc) == list(want)
    for key, value in want.items():
        if key in ("blocks", "image") and _is_matrix(value):
            assert isinstance(doc[key], np.ndarray) and doc[key].dtype.kind in "iu"
            assert repr(doc[key].tolist()) == repr(value)
        else:
            assert repr(doc[key]) == repr(value)


# -- malformed documents exit 2 without a traceback ------------------------


def _fano_documents(tmp_path):
    design, emb = tmp_path / "fano.json", tmp_path / "emb.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    main(["embed", "symmetric", str(design), "--out", str(emb)])
    return design, emb


def _exit_and_error(capsys, argv):
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


@pytest.mark.parametrize("change", [
    lambda doc: doc.pop("v"),
    lambda doc: doc.pop("blocks"),
    lambda doc: doc.update(blocks="abc"),
    lambda doc: doc.update(blocks=[[0, 1, "2"]] + doc["blocks"][1:]),
    lambda doc: doc.update(blocks=[[0, 1, 2.0]] + doc["blocks"][1:]),
    lambda doc: doc.update(blocks=[[0, 1, True]] + doc["blocks"][1:]),
    lambda doc: doc.update(blocks=[7] + doc["blocks"][1:]),
    lambda doc: doc.update(v="7"),
    lambda doc: doc.update(blocks=[[0, 1, 2 ** 64]] + doc["blocks"][1:]),
    lambda doc: doc.update(points=5),
    lambda doc: doc.update(points=doc["points"][:3]),
], ids=["no-v", "no-blocks", "blocks-string", "str-entry", "float-entry", "bool-entry",
        "row-not-list", "v-string", "entry-beyond-64-bits", "points-int", "points-short"])
def test_malformed_design_exits_2(tmp_path, capsys, change):
    design, emb = _fano_documents(tmp_path)
    doc = read(design)
    change(doc)
    design.write_text(json.dumps(doc))
    # info prints a document without "blocks" as plain JSON
    infos = [["info", str(design)]] if "blocks" in doc else []
    for argv in [["verify", str(design), str(emb)]] + infos:
        rc, err = _exit_and_error(capsys, argv)
        assert rc == 2 and err.startswith("error: ")


@pytest.mark.parametrize("change", [
    lambda doc: doc.pop("image"),
    lambda doc: doc.pop("group"),
    lambda doc: doc.pop("kind"),
    lambda doc: doc["group"].pop("m"),
    lambda doc: doc.update(image=[[0] * 6] + doc["image"][1:]),
    lambda doc: doc.update(image=[[0.5] * 7] + doc["image"][1:]),
    lambda doc: doc.update(image=doc["image"][:3] + ["x"] + doc["image"][4:]),
    lambda doc: doc["group"].update(m=1),
    lambda doc: doc["group"].update(t=0),
    lambda doc: doc["group"].update(m=2 ** 64),
    lambda doc: doc.update(meta=5),
], ids=["no-image", "no-group", "no-kind", "no-m", "short-row", "float-entry",
        "row-not-list", "m-1", "t-0", "m-2^64", "meta-int"])
def test_malformed_embedding_exits_2(tmp_path, capsys, change):
    design, emb = _fano_documents(tmp_path)
    doc = read(emb)
    change(doc)
    emb.write_text(json.dumps(doc))
    # info prints a document without "image" as plain JSON
    infos = [["info", str(emb)]] if "image" in doc else []
    for argv in [["verify", str(design), str(emb)]] + infos:
        rc, err = _exit_and_error(capsys, argv)
        assert rc == 2 and err.startswith("error: ")


@pytest.mark.parametrize("break_design, expected", [
    (lambda doc: doc.pop("v"), (2, "error: document needs 'v' of type int\n")),
    (lambda doc: doc.update(k=4), (1, "NotTwoDesign: document claims (k, lambda) = (4, 1), "
                                      "blocks give (3, 1)\n")),
], ids=["no-v", "wrong-k"])
@pytest.mark.parametrize("break_embedding", [
    lambda path: path.write_text(json.dumps(dict(read(path), image="x"))),
    lambda path: path.write_text("{"),
    lambda path: path.unlink(),
], ids=["malformed", "not-json", "missing"])
def test_verify_reports_the_design_error_before_the_embedding_error(
        tmp_path, capsys, break_design, expected, break_embedding):
    design, emb = _fano_documents(tmp_path)
    doc = read(design)
    break_design(doc)
    design.write_text(json.dumps(doc))
    break_embedding(emb)
    assert _exit_and_error(capsys, ["verify", str(design), str(emb)]) == expected


def _design_readers(design, emb):
    return [["info", str(design)], ["embed", "symmetric", str(design)],
            ["verify", str(design), str(emb)]]


@pytest.mark.parametrize("claims", [{"k": 3.0, "lambda": 1.0}, {"lambda": "x"}, {"k": True}],
                         ids=["float-claims", "str-lambda", "bool-k"])
def test_mistyped_design_claims_exit_2(tmp_path, capsys, claims):
    design, emb = _fano_documents(tmp_path)
    design.write_text(json.dumps(dict(read(design), **claims)))
    for argv in _design_readers(design, emb):
        rc, err = _exit_and_error(capsys, argv)
        assert rc == 2 and err.startswith("error: "), argv


def test_a_wrong_lambda_claim_without_k_exits_1(tmp_path, capsys):
    design, emb = _fano_documents(tmp_path)
    doc = read(design)
    del doc["k"]
    design.write_text(json.dumps(dict(doc, **{"lambda": 2})))
    for argv in _design_readers(design, emb):
        assert _exit_and_error(capsys, argv) == (1, "NotTwoDesign: document claims (k, lambda) "
                                                    "= (3, 2), blocks give (3, 1)\n"), argv


def _plane3_set(tmp_path):
    path = tmp_path / "set.json"
    main(["gen", "dev", "--v", "13", "--set", "0,1,3,9", "--format", "diffset",
          "--out", str(path)])
    return path


@pytest.mark.parametrize("change", [
    lambda doc: doc.pop("v"),
    lambda doc: doc.pop("set"),
    lambda doc: doc.update(set="0,1,3,9"),
    lambda doc: doc.update(set=["a", 1, 3, 9]),
    lambda doc: doc.update(set=[0.5, 1, 3, 9]),
    lambda doc: doc.update(set=[True, 1, 3, 9]),
    lambda doc: doc.update(set=[[0], 1, 3, 9]),
    lambda doc: doc.update(set=[0, 1, 3, 2 ** 64]),
    lambda doc: doc.update(v=0),
    lambda doc: doc.update(v=1),
    lambda doc: doc.update(v=-13),
    lambda doc: doc.update(v=13.0),
], ids=["no-v", "no-set", "set-string", "str-entry", "float-entry", "bool-entry",
        "list-entry", "entry-beyond-64-bits", "v-0", "v-1", "v-negative", "v-float"])
def test_malformed_difference_set_exits_2(tmp_path, capsys, change):
    path = _plane3_set(tmp_path)
    doc = read(path)
    change(doc)
    path.write_text(json.dumps(doc))
    # info prints a document without "set" as plain JSON
    infos = [["info", str(path)]] if "set" in doc else []
    for argv in [["embed", "cyclic", str(path), "--p", "3"]] + infos:
        rc, err = _exit_and_error(capsys, argv)
        assert rc == 2 and err.startswith("error: ")


@pytest.mark.parametrize("v", ["0", "1"])
def test_gen_dev_with_v_below_2_is_not_a_difference_set(capsys, v):
    rc, err = _exit_and_error(capsys, ["gen", "dev", "--v", v, "--set", "0,1"])
    assert rc == 1 and err.startswith("NotDifferenceSet: need v >= 2")


def test_modulus_of_2_63_is_too_large(tmp_path, capsys):
    design, emb = _fano_documents(tmp_path)
    doc = read(emb)
    doc["group"]["m"] = 2 ** 63
    emb.write_text(json.dumps(doc))
    rc, err = _exit_and_error(capsys, ["verify", str(design), str(emb)])
    assert rc == 2 and "2^63" in err


def test_info_without_v_exits_2(tmp_path, capsys):
    design, _ = _fano_documents(tmp_path)
    doc = read(design)
    del doc["v"]
    design.write_text(json.dumps(doc))
    rc, err = _exit_and_error(capsys, ["info", str(design)])
    assert rc == 2 and "'v'" in err


def test_ragged_blocks_exit_1(tmp_path, capsys):
    design, emb = _fano_documents(tmp_path)
    doc = read(design)
    doc["blocks"][0] = [0, 1]
    design.write_text(json.dumps(doc))
    for argv in (["verify", str(design), str(emb)], ["info", str(design)]):
        rc, err = _exit_and_error(capsys, argv)
        assert rc == 1 and err.startswith("UnequalBlockSizes: block sizes [2, 3]")


def test_info_on_a_document_that_is_not_an_object_prints_it(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for text in ("5", '"blocks and set"'):
        path.write_text(text)
        assert main(["info", str(path)]) == 0
        assert capsys.readouterr() == (text + "\n", "")


# Each leaf of gen and embed: a valid argv, and the flags it reads.
LEAVES = {
    "gen pg": (["--n", "2", "--q", "2", "--d", "1"], {"n", "q", "d", "points", "poly", "out"}),
    "gen ag": (["--n", "2", "--q", "3", "--d", "1"], {"n", "q", "d", "out"}),
    "gen paley": (["--v", "7"], {"v", "format", "out"}),
    "gen singer": (["--n", "2", "--q", "2"], {"n", "q", "poly", "format", "out"}),
    "gen dev": (["--v", "7", "--set", "1,2,4"], {"v", "set", "format", "out"}),
    "embed symmetric": (["fano.json"], {"input", "out"}),
    "embed cyclic": (["set.json", "--p", "2"], {"input", "p", "poly", "out"}),
    "embed pg": (["--n", "2", "--q", "2", "--d", "1"], {"n", "q", "d", "out"}),
    "embed subspace": (["pg.json", "--q", "2"], {"input", "q", "poly", "out"}),
}


def _usage_error(capsys, argv):
    """The exit status and stderr of an argv that argparse refuses."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "usage: addesigns" in err
    return exc.value.code, err


def _case(leaf, flags, missing):
    return pytest.param(leaf, flags, missing, id="%s without %s" % (leaf, " ".join(missing)))


def _without_one_required(leaf):
    valid = LEAVES[leaf][0]
    for i, arg in enumerate(valid):
        if arg.startswith("--"):
            yield _case(leaf, valid[:i] + valid[i + 2:], [arg])
        elif i == 0:
            yield _case(leaf, valid[1:], ["input"])


@pytest.mark.parametrize("leaf, flags, missing", [
    case for leaf in LEAVES for case in _without_one_required(leaf)
] + [
    _case("gen pg", [], ["--n", "--q", "--d"]),
    _case("gen ag", ["--n", "3"], ["--q", "--d"]),
    _case("gen singer", [], ["--n", "--q"]),
])
def test_a_missing_required_flag_is_a_usage_error(capsys, leaf, flags, missing):
    rc, err = _usage_error(capsys, leaf.split() + flags)
    assert rc == 2 and "the following arguments are required: %s\n" % ", ".join(missing) in err


@pytest.mark.parametrize("argv, foreign", [
    (["gen", "ag", "--n", "2", "--q", "3", "--d", "1", "--poly", "1,1"], "--poly"),
    (["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--format", "diffset"], "--format"),
    (["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--set", "1,2", "--v", "99"], "--set"),
    (["gen", "paley", "--v", "7", "--poly", "1,1"], "--poly"),
    (["gen", "dev", "--v", "7", "--set", "1,2,4", "--n", "2"], "--n"),
    (["embed", "pg", "x.json", "--n", "2", "--q", "2", "--d", "1"], "x.json"),
    (["embed", "symmetric", "fano.json", "--p", "7"], "--p"),
    (["embed", "cyclic", "set.json", "--p", "2", "--q", "2"], "--q"),
    (["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--poly", "1,1,1"], "--poly"),
    (["gen", "--n", "2", "pg", "--q", "2", "--d", "1"], "'2'"),
], ids=["ag-poly", "pg-format", "pg-set-v", "paley-poly", "dev-n", "embed-pg-input",
        "symmetric-p", "cyclic-q", "pg-poly-without-cyclic", "flag-before-kind"])
def test_a_foreign_flag_is_a_usage_error(capsys, argv, foreign):
    rc, err = _usage_error(capsys, argv)
    assert rc == 2 and foreign in err


@pytest.mark.parametrize("argv", [
    ["gen", "ag", "--n", "2", "--q", "3", "--d", "1", "--poly", "1,1"],
    ["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--poly", "1,1,1"],
    ["embed", "pg", "x.json", "--n", "2", "--q", "2", "--d", "1"],
    ["info", "a.json", "b.json"],
], ids=["ag-poly", "pg-poly-without-cyclic", "embed-pg-input", "info-two-files"])
def test_a_foreign_flag_is_reported_with_the_leafs_usage(capsys, argv):
    # the root's usage, "usage: addesigns [-h] {gen,embed,verify,info} ...", named no flag
    rc, err = _usage_error(capsys, argv)
    leaf = " ".join(argv[:1 if argv[0] == "info" else 2])
    assert rc == 2 and err.startswith("usage: addesigns %s [-h]" % leaf)
    assert "addesigns %s: error: " % leaf in err


@pytest.mark.parametrize("argv, flag", [
    (["gen", "dev", "--v", "7", "--set", "a"], "--set"),
    (["gen", "singer", "--n", "2", "--q", "2", "--poly", "1,x,1"], "--poly"),
], ids=["set", "poly"])
def test_a_malformed_integer_list_says_what_it_must_be(capsys, argv, flag):
    # argparse named the parsing function: "invalid _parse_ints value: 'a'"
    rc, err = _usage_error(capsys, argv)
    assert rc == 2 and "argument %s: not comma-separated integers: %r\n" % (flag, argv[-1]) in err


@pytest.mark.parametrize("leaf", LEAVES)
def test_each_leaf_has_help_and_exactly_its_flags(capsys, leaf):
    with pytest.raises(SystemExit) as exc:
        main(leaf.split() + ["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert exc.value.code == 0 and usage.startswith("usage: addesigns " + leaf)
    flags = set(re.findall(r"--(\w+)", usage)) | ({"input"} & set(usage.split()))
    assert flags == LEAVES[leaf][1]


def test_every_benchmark_stage_parses():
    # perfbench/ runs these argvs; a parser change must keep taking them
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    instances = [i for group in workloads.WORKLOADS.values() for i in group] + workloads.SELFCHECK
    parser = build_parser()
    for stage in (s for instance in instances for s in instance.stages):
        argv = [re.sub(r"\{\w+\.\w+\}", "1", re.sub(r"\{\w+\}", "doc.json", a))
                for a in stage.args]
        assert parser.parse_args(argv).verb == stage.verb
