import json

import pytest

from coxlab.cli import (SUITES, VerificationReport, element_cap, main,
                        matrix_digest, run_verify)
from coxlab.matrices import parse_matrix

from conftest import MATRICES

T23INF_DOC = '{"rank":3,"m":[[1,2,0],[2,1,3],[0,3,1]]}'
REMARK_DOC = '{"rank":3,"m":[[1,0,2],[0,1,2],[2,2,1]]}'


@pytest.fixture
def t23inf_file(tmp_path):
    f = tmp_path / "t23inf.json"
    f.write_text(T23INF_DOC)
    return str(f)


@pytest.fixture
def remark_file(tmp_path):
    f = tmp_path / "remark.json"
    f.write_text(REMARK_DOC)
    return str(f)


def test_classify_human(t23inf_file, capsys):
    assert main(["classify", t23inf_file]) == 0
    out = capsys.readouterr().out
    assert "infinite, indecomposable" in out
    assert "3 vertices, 2 edges" in out


def test_classify_json(t23inf_file, capsys):
    assert main(["classify", t23inf_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["finite"] is False
    assert data["indecomposable"] is True
    assert data["nerve"]["edges"] == 2


def test_classify_decomposable(remark_file, capsys):
    assert main(["classify", remark_file]) == 0
    out = capsys.readouterr().out
    assert "decomposable" in out
    assert "infinite" in out


def test_classify_finite(tmp_path, capsys):
    f = tmp_path / "h3.json"
    f.write_text(MATRICES["h3"].to_json())
    assert main(["classify", str(f)]) == 0
    assert capsys.readouterr().out.startswith("finite")


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"rank":2,"m":[[1,3],[2,1]]}')
    assert main(["classify", str(f)]) == 3
    assert main(["classify", str(tmp_path / "missing.json")]) == 3


def test_nerve_command(t23inf_file, capsys):
    assert main(["nerve", t23inf_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [3, 2]
    assert ["s1", "s2"] in data["simplices"]


def test_subgroup_command(t23inf_file, capsys):
    assert main(["subgroup", t23inf_file, "--reflections", "2;3;1 3 1",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["index"] == 2
    # generators sort as s2, s3, s1s3s1: orders (s2,s3)=3, (s2,131)=3,
    # (s3,131)=oo
    assert data["induced_m"] == [[1, 3, 3], [3, 1, 0], [3, 0, 1]]
    assert data["nerve_deletion"] is True
    assert data["polytope"] == ["", "1"]
    assert data["theorems"]["status"] == "pass"


def test_subgroup_rank_preserved_on_line(tmp_path, capsys):
    f = tmp_path / "line.json"
    f.write_text('{"rank":2,"m":[[1,0],[0,1]]}')
    assert main(["subgroup", str(f), "--reflections", "1;2 1 2",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["index"] == 2
    assert data["induced_m"] == [[1, 0], [0, 1]]


def test_subgroup_non_reflection_exits_3(t23inf_file, capsys):
    assert main(["subgroup", t23inf_file, "--reflections", "1 2"]) == 3


def test_subgroup_budget_exits_2(tmp_path, capsys):
    f = tmp_path / "line.json"
    f.write_text('{"rank":2,"m":[[1,0],[0,1]]}')
    assert main(["subgroup", str(f), "--reflections", "1",
                 "--budget", "8", "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["index"] == ">budget"


def test_polytopes_emit_roundtrip(t23inf_file, tmp_path, capsys):
    out = tmp_path / "census.jsonl"
    assert main(["polytopes", t23inf_file, "--max-chambers", "4",
                 "--emit", str(out), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    lines = out.read_text().splitlines()
    assert summary["polytopes"] == len(lines)
    recs = [json.loads(line) for line in lines]
    assert all(set(r) == {"chambers", "facets", "coxeter", "acute", "angles"}
               for r in recs)
    assert recs[0]["chambers"] == [""]
    assert summary["min_facets"] == 3
    # deterministic output
    out2 = tmp_path / "census2.jsonl"
    main(["polytopes", t23inf_file, "--max-chambers", "4",
          "--emit", str(out2), "--json"])
    capsys.readouterr()
    assert out.read_text() == out2.read_text()


def test_verify_all_passes(t23inf_file, capsys):
    assert main(["verify", t23inf_file, "--suite", "all",
                 "--max-chambers", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses == {
        "facet-bound": "bounded-pass",
        "andreev": "bounded-pass",
        "stacan": "bounded-pass",
        "nerve-deletion": "bounded-pass",
        "comm": "bounded-pass",
    }


def test_verify_255_all_passes(tmp_path, capsys):
    f = tmp_path / "t255.json"
    f.write_text(MATRICES["t255"].to_json())
    assert main(["verify", str(f), "--suite", "all",
                 "--max-chambers", "8", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in data["checks"]}
    assert all(c["status"] == "bounded-pass" for c in data["checks"])
    # no proper equal-rank subgroup within the budget
    assert "0 proper equal-rank subgroups" in by_name["comm"]["detail"]


def test_verify_suites_alone_match_all():
    # the census and equal-rank search shared under "all", and the angle
    # sites cached on census polytopes, change no suite's result
    for name, proper in (("t23inf", 4), ("t255", 0)):
        together = run_verify(MATRICES[name], "all", 6).checks
        assert [c["name"] for c in together] == \
            [s for s in SUITES if s != "all"]
        assert f"; {proper} proper equal-rank" in together[-1]["detail"]
        for entry in together:
            alone = run_verify(MATRICES[name], entry["name"], 6).checks
            assert alone == [entry], (name, entry["name"])


def test_verify_skips_on_precondition(remark_file, capsys):
    assert main(["verify", remark_file, "--suite", "facet-bound",
                 "--max-chambers", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["status"] == "skipped"


def test_report_round_trip():
    report = run_verify(parse_matrix(T23INF_DOC), "facet-bound", 4)
    data = json.loads(json.dumps(report.to_json_dict()))
    again = VerificationReport.from_json_dict(data)
    assert again == report
    assert again.exit_code == report.exit_code == 0


def test_exit_code_logic():
    r = VerificationReport("x", "d", {})
    r.add("a", "pass")
    assert r.exit_code == 0
    r.add("b", "fail")
    assert r.exit_code == 1
    r2 = VerificationReport("x", "d", {})
    r2.add("a", "budget")
    assert r2.exit_code == 2
    r3 = VerificationReport("x", "d", {})
    r3.add("a", "skipped")
    assert r3.exit_code == 0


def test_element_cap_env(monkeypatch):
    monkeypatch.delenv("COXLAB_BUDGET", raising=False)
    assert element_cap() == 100_000
    monkeypatch.setenv("COXLAB_BUDGET", "5000")
    assert element_cap() == 5000


def test_budget_env_caps_census(monkeypatch, t23inf_file, capsys):
    monkeypatch.setenv("COXLAB_BUDGET", "5")
    assert main(["polytopes", t23inf_file, "--max-chambers", "6"]) == 2
    assert main(["verify", t23inf_file, "--suite", "facet-bound",
                 "--max-chambers", "6", "--json"]) == 2
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert data["checks"][0]["status"] == "budget"


def test_matrix_digest_stable():
    m = parse_matrix(T23INF_DOC)
    assert matrix_digest(m) == matrix_digest(parse_matrix(m.to_json()))


def test_census_deterministic_across_processes(t23inf_file, tmp_path):
    # different hash seeds must not change any emitted ordering
    import os
    import subprocess
    import sys
    outputs = []
    for seed in ("1", "31337"):
        out = tmp_path / f"census-{seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        r = subprocess.run(
            [sys.executable, "-m", "coxlab.cli", "polytopes", t23inf_file,
             "--max-chambers", "5", "--emit", str(out)],
            env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
