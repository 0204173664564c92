import json

import pytest

from addesigns import designs
from addesigns.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


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


def test_verify_strong_huge_modulus_exits_2(tmp_path, capsys):
    design = tmp_path / "fano.json"
    emb = tmp_path / "emb.json"
    main(["gen", "pg", "--n", "2", "--q", "2", "--d", "1", "--out", str(design)])
    m = 2 ** 62
    emb.write_text(json.dumps({
        "group": {"m": m, "t": 1}, "kind": "test", "meta": {},
        "image": [[i] for i in range(7)],
    }))
    capsys.readouterr()
    assert main(["verify", str(design), str(emb), "--strong"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
