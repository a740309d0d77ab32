import contextlib
import hashlib
import io
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxlab import SIGN_STATS, cli, davis
from coxlab.cli import (SUITES, VerificationReport, element_cap, main,
                        matrix_digest, run_verify)
from coxlab.errors import InputError
from coxlab.matrices import parse_matrix

from conftest import MATRICES

BENCH = Path(__file__).resolve().parent.parent / "bench"
T23INF_DOC = '{"rank":3,"m":[[1,2,0],[2,1,3],[0,3,1]]}'
REMARK_DOC = '{"rank":3,"m":[[1,0,2],[0,1,2],[2,2,1]]}'
H3_DOC = '{"rank":3,"m":[[1,5,2],[5,1,3],[2,3,1]]}'
_SKIP = ('{"detail": "needs an infinite indecomposable system", '
         '"name": "%s", "status": "skipped"}')
H3_ALL_SKIPPED = (
    '{"budgets": {"element_cap": 100000, "max_chambers": 6}, "checks": ['
    + ", ".join(_SKIP % s for s in ("facet-bound", "andreev", "stacan",
                                    "nerve-deletion", "comm"))
    + '], "matrix_digest": "fa6cd8768fee", "suite": "all"}\n')


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


@pytest.mark.parametrize("argv", [
    ["polytopes", "{file}", "--max-chambers", "abc"],
    ["verify"],
    ["no-such-command", "{file}"],
], ids=["bad-option-value", "missing-file", "unknown-command"])
def test_usage_error_exits_3(t23inf_file, capsys, argv):
    # exit 2 means a budget ran out; a usage error is bad input
    assert main([a.format(file=t23inf_file) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: coxlab" in captured.err
    assert "input error:" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert "usage: coxlab" in capsys.readouterr().out


def test_parser_is_built_once_per_process(t23inf_file, capsys, monkeypatch):
    # a usage error, then good calls, on the one parser: the same outputs
    # and exit codes as a fresh parser per call
    calls = [["verify"], ["classify", t23inf_file, "--json"],
             ["polytopes", t23inf_file, "--max-chambers", "abc"],
             ["polytopes", t23inf_file, "--max-chambers", "4", "--json"],
             ["verify", t23inf_file, "--suite", "andreev", "--json"]]

    def run():
        out = []
        for argv in calls:
            code = main(argv)
            out.append((code, capsys.readouterr()))
        return out

    cli.build_parser.cache_clear()
    shared = run()
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _ in shared] == [3, 0, 3, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run() == shared


MALFORMED_DOCS = {
    "m-not-a-list": b'{"rank": 2, "m": 5}',
    "m-rows-not-lists": b'{"rank": 2, "m": [1, 2]}',
    "labels-int": b'{"rank": 2, "m": [[1, 3], [3, 1]], "labels": 5}',
    "labels-str": b'{"rank": 2, "m": [[1, 3], [3, 1]], "labels": "ab"}',
    "rank-bool": b'{"rank": true, "m": [[1]]}',
    "diagonal-bool": b'{"rank": 2, "m": [[true, 3], [3, 1]]}',
    "order-bool": b'{"rank": 2, "m": [[1, false], [false, 1]]}',
    "huge-rank-lines": b"rank 99999999\n",
    "huge-rank-json": b'{"rank": 99999999, "m": []}',
    "not-utf8": b"\xff\xfe rank 2",
    "conflicting-pair": b"rank 2\n1 2 3\n2 1 5\n",
}


@pytest.mark.parametrize("doc", MALFORMED_DOCS.values(), ids=MALFORMED_DOCS)
def test_malformed_matrix_exits_3(tmp_path, capsys, doc):
    f = tmp_path / "bad.json"
    f.write_bytes(doc)
    assert main(["classify", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


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


def test_polytopes_empty_emit_writes_nothing(t23inf_file, tmp_path,
                                            monkeypatch, capsys):
    # an empty --emit path is no path: the summary alone, and no file
    monkeypatch.chdir(tmp_path)
    listing = sorted(os.listdir(tmp_path))
    argv = ["polytopes", t23inf_file, "--max-chambers", "3", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--emit", ""]) == 0
    assert capsys.readouterr().out == expected
    assert sorted(os.listdir(tmp_path)) == listing


@pytest.mark.parametrize("where", ["missing/census.jsonl", "."])
def test_polytopes_unwritable_emit_exits_3(t23inf_file, tmp_path, capsys,
                                           where):
    # a missing directory, and a directory (the path is then tmp_path
    # itself, and the temporary file would go beside it): no temporary
    # file is left in either place
    path = str(tmp_path / where)
    listing = sorted(os.listdir(tmp_path))
    assert main(["polytopes", t23inf_file, "--max-chambers", "2",
                 "--emit", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert path in err
    assert sorted(os.listdir(tmp_path)) == listing
    assert not [n for n in os.listdir(tmp_path.parent)
                if n.startswith(f".{tmp_path.name}.")]


def test_polytopes_emit_has_the_mode_of_a_new_file(t23inf_file, tmp_path,
                                                   capsys):
    # the census file is made as ``open(path, "w")`` makes a file under
    # the current umask, not with a private temporary file's 0600
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    out = tmp_path / "census.jsonl"
    assert main(["polytopes", t23inf_file, "--max-chambers", "3",
                 "--emit", str(out)]) == 0
    capsys.readouterr()
    assert stat.S_IMODE(out.stat().st_mode) == \
        stat.S_IMODE(reference.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["census.jsonl", "reference", os.path.basename(t23inf_file)])


@pytest.mark.parametrize("existing", [None, b"an earlier census\n"])
def test_polytopes_budget_exit_leaves_the_emit_path(t23inf_file, tmp_path,
                                                    monkeypatch, capsys,
                                                    existing):
    # a census past COXLAB_BUDGET exits 2 and writes nothing: no file
    # where there was none, an earlier file byte for byte, and no
    # temporary file beside it
    out = tmp_path / "census.jsonl"
    if existing is not None:
        out.write_bytes(existing)
    listing = sorted(os.listdir(tmp_path))
    monkeypatch.setenv("COXLAB_BUDGET", "5")
    assert main(["polytopes", t23inf_file, "--max-chambers", "6",
                 "--emit", str(out), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exhausted: census exceeded 5 polytopes "
                            "(raise COXLAB_BUDGET)\n")
    assert sorted(os.listdir(tmp_path)) == listing
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


def test_polytopes_writes_each_line_as_its_member_is_yielded(
        t23inf_file, tmp_path, monkeypatch, capsys):
    # the census is streamed: each member's line is formatted before the
    # next member is asked for, and only the lines of the members yielded
    # reach the file
    events = []
    enumerate_convex_polytopes = davis.enumerate_convex_polytopes
    census_line = davis.census_line

    def enumerated(group, max_chambers):
        for p in enumerate_convex_polytopes(group, max_chambers):
            events.append("member")
            yield p

    def formatted(group, p):
        events.append("line")
        return census_line(group, p)

    monkeypatch.setattr(davis, "enumerate_convex_polytopes", enumerated)
    monkeypatch.setattr(davis, "census_line", formatted)
    out = tmp_path / "census.jsonl"
    assert main(["polytopes", t23inf_file, "--max-chambers", "5",
                 "--emit", str(out), "--json"]) == 0
    polytopes = json.loads(capsys.readouterr().out)["polytopes"]
    assert events == ["member", "line"] * polytopes
    assert out.read_bytes().count(b"\n") == polytopes > 5


@pytest.mark.parametrize("stem", sorted(
    p.stem for p in (BENCH / "inputs").glob("*.json")))
def test_polytopes_summary_is_the_same_without_emit(stem, tmp_path, capsys):
    # with no --emit the census formats no line and reads its two flags
    # off the site table: the summary is the one a run with --emit prints
    path = str(BENCH / "inputs" / f"{stem}.json")
    assert main(["polytopes", path, "--max-chambers", "7", "--emit",
                 str(tmp_path / "census.jsonl"), "--json"]) == 0
    emitted = capsys.readouterr().out
    assert main(["polytopes", path, "--max-chambers", "7", "--json"]) == 0
    assert capsys.readouterr().out == emitted
    assert json.loads(emitted)["polytopes"] > 1


def test_polytopes_without_emit_formats_no_line(t23inf_file, monkeypatch,
                                                capsys):
    def refused(group, p):
        raise AssertionError("census_line with no --emit")

    monkeypatch.setattr(davis, "census_line", refused)
    assert main(["polytopes", t23inf_file, "--max-chambers", "6",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["polytopes"] > 5


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


def test_verify_skips_on_precondition(remark_file, tmp_path, capsys):
    assert main(["verify", remark_file, "--suite", "facet-bound",
                 "--max-chambers", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["status"] == "skipped"
    # a finite system skips every suite of "all", in suite order
    f = tmp_path / "h3.json"
    f.write_text(H3_DOC)
    assert main(["verify", str(f), "--suite", "all",
                 "--max-chambers", "6", "--json"]) == 0
    out = capsys.readouterr().out
    assert [(c["name"], c["status"]) for c in json.loads(out)["checks"]] \
        == [(s, "skipped") for s in SUITES if s != "all"]
    assert out == H3_ALL_SKIPPED


@pytest.mark.parametrize("doc", ["rank 2\n1 2 211\n",
                                 "rank 4\n1 2 211\n3 4 0\n"])
def test_verify_skips_before_building_the_group(tmp_path, capsys, doc):
    # I2(211) and a decomposable system holding it: the field of m = 211
    # is past the field cap, but no suite applies, so none is built
    f = tmp_path / "m.txt"
    f.write_text(doc)
    assert main(["verify", str(f), "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] \
        == [(s, "skipped") for s in SUITES if s != "all"]


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


def test_element_cap_env(monkeypatch, t23inf_file):
    monkeypatch.delenv("COXLAB_BUDGET", raising=False)
    assert element_cap() == 100_000
    monkeypatch.setenv("COXLAB_BUDGET", "5000")
    assert element_cap() == 5000
    # a nonpositive cap is bad input, not an exhausted budget
    for raw in ("0", "-3"):
        monkeypatch.setenv("COXLAB_BUDGET", raw)
        with pytest.raises(InputError):
            element_cap()
        assert main(["polytopes", t23inf_file, "--max-chambers", "4"]) == 3
        assert main(["verify", t23inf_file, "--suite", "facet-bound",
                     "--max-chambers", "4"]) == 3


def test_subgroup_nonpositive_budget_exits_3(t23inf_file, capsys):
    for budget in ("0", "-1"):
        assert main(["subgroup", t23inf_file, "--reflections", "2;3;1 3 1",
                     "--budget", budget]) == 3
        assert "chamber budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-4"])
@pytest.mark.parametrize("doc", [H3_DOC, REMARK_DOC], ids=["h3", "remark"])
def test_verify_nonpositive_budget_exits_3_without_suites(tmp_path, capsys,
                                                          doc, budget):
    # a chamber budget below 1 is bad input even where no suite applies
    f = tmp_path / "matrix.json"
    f.write_text(doc)
    assert main(["verify", str(f), "--max-chambers", budget, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: chamber budget must be >= 1" in captured.err


def test_budget_env_caps_census(monkeypatch, t23inf_file, capsys):
    monkeypatch.setenv("COXLAB_BUDGET", "5")
    assert main(["polytopes", t23inf_file, "--max-chambers", "6"]) == 2
    assert main(["verify", t23inf_file, "--suite", "facet-bound",
                 "--max-chambers", "6", "--json"]) == 2
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert data["checks"][0]["status"] == "budget"


def test_verify_builds_one_census(monkeypatch, tmp_path, capsys):
    # every suite reads one census, built once per run_verify: on a pass,
    # and on a spent budget, which each requested suite reports alike
    calls = []
    census_list = cli.census_list

    def counted(*args):
        calls.append(args)
        return census_list(*args)

    monkeypatch.setattr(cli, "census_list", counted)
    assert run_verify(MATRICES["t23inf"], "all", 6).exit_code == 0
    assert len(calls) == 1
    monkeypatch.setenv("COXLAB_BUDGET", "50")
    f = tmp_path / "tooo.json"
    f.write_text(MATRICES["univ3"].to_json())
    assert main(["verify", str(f), "--max-chambers", "8", "--json"]) == 2
    assert len(calls) == 2
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "8ae0fb55f33f"
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [s for s in SUITES if s != "all"]
    assert {c["status"] for c in checks} == {"budget"}
    assert len({c["detail"] for c in checks}) == 1


def test_matrix_digest_stable():
    m = parse_matrix(T23INF_DOC)
    assert matrix_digest(m) == matrix_digest(parse_matrix(m.to_json()))


def test_census_deterministic_across_processes(t23inf_file, tmp_path):
    # different hash seeds must not change any emitted ordering; the
    # subprocess imports the coxlab this test imported, from its source
    # directory, whether or not PYTHONPATH is set
    import os
    import subprocess
    import sys
    from pathlib import Path

    import coxlab
    src = str(Path(coxlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "31337"):
        out = tmp_path / f"census-{seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        r = subprocess.run(
            [sys.executable, "-m", "coxlab.cli", "polytopes", t23inf_file,
             "--max-chambers", "5", "--emit", str(out)],
            env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


REFERENCES = json.loads((BENCH / "references.json").read_text())


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind in ("census", "verify")
    for key in sorted(REFERENCES[kind])])
def test_bench_commands_match_references(kind, key, tmp_path, monkeypatch,
                                         capsys):
    # every census and verify command of the benchmark (``stem@K``) gives
    # the exit code and the output sha256 recorded for it, at the default
    # budget, and never falls back to floats
    monkeypatch.delenv("COXLAB_BUDGET", raising=False)
    ref = REFERENCES[kind][key]
    stem, k = key.split("@")
    path = str(BENCH / "inputs" / f"{stem}.json")
    fallbacks = SIGN_STATS.float_fallbacks
    if kind == "census":
        emit = tmp_path / "census.jsonl"
        code = main(["polytopes", path, "--max-chambers", k,
                     "--emit", str(emit), "--json"])
        text, digest = emit.read_text(), ref["jsonl_sha256"]
    else:
        code = main(["verify", path, "--suite", "all", "--max-chambers", k,
                     "--json"])
        text, digest = capsys.readouterr().out, ref["report_sha256"]
    assert code == ref["exit_code"]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert SIGN_STATS.float_fallbacks == fallbacks


_FUZZ_COMMANDS = (["classify"], ["nerve"],
                  ["polytopes", "--max-chambers", "3"],
                  ["verify", "--suite", "all", "--max-chambers", "3"])


@st.composite
def _fuzzed_matrix_files(draw):
    """A matrix document of rank 1-4 with orders in {0, ..., 7, oo}, in
    either format, with a few entries sometimes spoilt."""
    n = draw(st.integers(1, 4))
    orders = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, "oo"])
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(orders)
            rows[i][j] = rows[j][i] = 0 if m == "oo" else m
    spoil = st.sampled_from(["oo", -1, 2.5, True, None, "3", 8, 0, 1])
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(spoil)
    if draw(st.booleans()):
        return json.dumps({"rank": draw(st.sampled_from([n, n, n + 1, 0])),
                           "m": rows})
    return "\n".join([f"rank {n}"] + [
        f"{i + 1} {j + 1} {rows[i][j]}"
        for i in range(n) for j in range(n) if i != j])


@settings(max_examples=150)
@given(doc=_fuzzed_matrix_files(), command=st.sampled_from(_FUZZ_COMMANDS))
def test_fuzzed_matrix_files_exit_cleanly(tmp_path_factory, doc, command):
    # every command ends in an exit code of 0-3 on any matrix file, with
    # a small element cap, and raises nothing
    f = tmp_path_factory.mktemp("fuzz") / "m.txt"
    f.write_text(doc)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setenv("COXLAB_BUDGET", "8")
        code = main([command[0], str(f), *command[1:]])
    assert code in (0, 1, 2, 3), (doc, command, err.getvalue())
