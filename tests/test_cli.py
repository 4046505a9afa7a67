import json

import pytest

from conftest import SQUARE_STAR_TEXT, PENDANT_PAIR_TEXT
from gedkit import cli, successors
from gedkit.cli import main
from gedkit.graphs import parse_graph_db, serialize_graph_db, vertex_partition
from gedkit.simsearch import GraphDatabase
from gedkit.synth import random_graph_db


@pytest.fixture
def square_star_db(tmp_path):
    path = tmp_path / "square_star.txt"
    path.write_text(SQUARE_STAR_TEXT)
    return str(path)


@pytest.fixture
def pendant_pair_db(tmp_path):
    path = tmp_path / "pendant_pair.txt"
    path.write_text(PENDANT_PAIR_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_dist_human(square_star_db, capsys):
    assert main(["dist", square_star_db, "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "ged(0, 1) = 4" in out


def test_dist_human_budget_without_leaf(square_star_db, capsys):
    # No leaf is reached, but an exact run starts at a complete mapping.
    assert main(["dist", square_star_db, "0", "1", "--budget", "2"]) == 3
    out = capsys.readouterr().out
    assert out.strip() == "nodes budget exhausted; best upper bound 4"


def test_dist_human_budget_with_upper_bound(pendant_pair_db, capsys):
    # The default order finishes this pair in one expansion; the paper's
    # dfs order needs more than 10 nodes.
    assert main(["dist", pendant_pair_db, "0", "1", "--beam", "1", "--budget", "10",
                 "--order", "dfs"]) == 3
    out = capsys.readouterr().out
    assert out.strip() == "nodes budget exhausted; best upper bound 5"


def test_dist_json_all_widths(square_star_db, capsys):
    for w in ("1", "2", "15", "50"):
        code, payload = run_json(capsys, ["dist", square_star_db, "0", "1", "--beam", w, "--json"])
        assert code == 0
        assert payload["ged"] == 4
        assert payload["status"] == "exact"
        assert {"expanded", "backtracks", "passes", "time_ms"} <= payload.keys()
        assert "reason" not in payload and "upper_bound" not in payload


def test_dist_budget_exhaustion_exit_code(square_star_db, capsys):
    code, payload = run_json(capsys, ["dist", square_star_db, "0", "1", "--budget", "2", "--json"])
    assert code == 3
    assert payload["ged"] is None
    assert payload["status"] == "budget_exhausted"
    assert payload["reason"] == "nodes"
    assert payload["upper_bound"] == 4


def test_dist_policies(square_star_db, capsys):
    for order in ("default", "dfs", "connected"):
        for succ in ("basic", "reduced"):
            code, payload = run_json(
                capsys,
                ["dist", square_star_db, "0", "1", "--order", order, "--succ", succ, "--json"],
            )
            assert code == 0 and payload["ged"] == 4


def test_oracle_json(square_star_db, capsys):
    code, payload = run_json(capsys, ["oracle", square_star_db, "0", "1"])
    assert code == 0
    assert payload == {"ged": 4, "mappings_enumerated": 209}


def test_search_json(square_star_db, tmp_path, capsys):
    query = tmp_path / "query.txt"
    query.write_text(SQUARE_STAR_TEXT.split("t # 1")[0])  # G alone
    code, payload = run_json(
        capsys,
        ["search", "--db", square_star_db, "--query", str(query), "--tau", "4", "--json"],
    )
    assert code == 0
    ids = {m["id"] for m in payload["matches"]}
    assert ids == {0, 1}  # ged(G,G)=0 and ged(Q,G)=4
    assert all(m.keys() == {"id", "bound"} and m["bound"] <= 4 for m in payload["matches"])
    assert payload["filtered"] + payload["candidates"] == 2
    assert payload["branch_refuted"] == 0
    assert payload["certified"] == 2  # each graph's branch assignment costs <= 4
    assert payload["filter_s"] >= 0 and payload["verify_s"] >= 0
    code, payload = run_json(
        capsys,
        ["search", "--db", square_star_db, "--query", str(query), "--tau", "3", "--json"],
    )
    assert {m["id"] for m in payload["matches"]} == {0}


def test_search_json_branch_refuted(pendant_pair_db, tmp_path, capsys):
    # Graph 1 passes the pair bound (2 <= 3) but not the branch bound
    # (4 > 3): it is a candidate that the engine never verifies.
    query = tmp_path / "query.txt"
    query.write_text(PENDANT_PAIR_TEXT.split("t # 1")[0])
    code, payload = run_json(
        capsys,
        ["search", "--db", pendant_pair_db, "--query", str(query), "--tau", "3", "--json"],
    )
    assert code == 0
    assert [m["id"] for m in payload["matches"]] == [0]
    assert (payload["filtered"], payload["candidates"], payload["branch_refuted"]) == (0, 2, 1)


def test_search_human(pendant_pair_db, tmp_path, capsys):
    query = tmp_path / "query.txt"
    query.write_text(PENDANT_PAIR_TEXT.split("t # 1")[0])
    assert main(["search", "--db", pendant_pair_db, "--query", str(query), "--tau", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 matches within tau=3 (0 filtered, 2 candidates: "
                               "1 refuted by branch bound, 1 certified by assignment, "
                               "0 verified by engine, ")
    assert lines[1:] == ["  graph 0: ged <= 0"]
    # At tau 4 graph 1 (ged 5) passes the branch bound, and its assignment
    # costs more than 4, so only the engine can refute it.
    assert main(["search", "--db", pendant_pair_db, "--query", str(query), "--tau", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 matches within tau=4 (0 filtered, 2 candidates: "
                               "0 refuted by branch bound, 1 certified by assignment, "
                               "1 verified by engine, ")
    assert lines[1:] == ["  graph 0: ged <= 0"]


def test_search_certified_match_beats_node_budget(tmp_path, capsys):
    # With a one-node budget the engine cannot finish on graph 0 against
    # itself; its branch assignment maps it onto itself at cost 0, so it is
    # a proven match and not an unknown.
    db = str(tmp_path / "db.txt")
    assert main(["gen", db, "--seed", "1"]) == 0
    capsys.readouterr()
    code, payload = run_json(
        capsys, ["search", "--db", db, "--query", db, "--tau", "3", "--budget", "1", "--json"])
    assert code == 0
    assert payload["matches"] == [{"id": 0, "bound": 0}]
    assert "unknown" not in payload
    assert (payload["candidates"], payload["branch_refuted"], payload["certified"]) == (1, 0, 1)


def test_search_budget_unknowns(tmp_path, capsys):
    # At tau 5 with a one-node budget the engine decides none of the three
    # candidates it runs on: they are unknowns, not engine verdicts.
    db = str(tmp_path / "db.txt")
    assert main(["gen", db, "--seed", "1"]) == 0
    capsys.readouterr()
    argv = ["search", "--db", db, "--query", db, "--tau", "5", "--budget", "1"]
    code, payload = run_json(capsys, argv + ["--json"])
    assert code == 0
    assert [m["id"] for m in payload["matches"]] == [0, 24]
    assert payload["unknown"] == [55, 61, 70]
    assert (payload["candidates"], payload["branch_refuted"], payload["certified"]) == (14, 9, 2)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("2 matches within tau=5 (86 filtered, 14 candidates: "
                               "9 refuted by branch bound, 2 certified by assignment, "
                               "0 verified by engine, ")
    assert lines[1:] == ["  graph 0: ged <= 0", "  graph 24: ged <= 5",
                         "  graph 55: unknown (budget exhausted)",
                         "  graph 61: unknown (budget exhausted)",
                         "  graph 70: unknown (budget exhausted)"]


def test_search_names_the_answered_query(square_star_db, tmp_path, capsys):
    # Only the first graph of --query is answered; a file with more than one
    # says so on stderr and leaves stdout's JSON as it is.
    argv = ["search", "--db", square_star_db, "--query", square_star_db, "--tau", "4", "--json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "answering graph 0, the first of 2 query graphs\n"
    assert {m["id"] for m in json.loads(captured.out)["matches"]} == {0, 1}
    query = tmp_path / "query.txt"
    query.write_text(SQUARE_STAR_TEXT.split("t # 1")[0])
    assert main(["search", "--db", square_star_db, "--query", str(query), "--tau", "4"]) == 0
    assert capsys.readouterr().err == ""


def test_search_threads_flag(square_star_db, tmp_path, capsys):
    # The flag is gone: searches run on one thread and --threads is unknown.
    query = tmp_path / "query.txt"
    query.write_text(SQUARE_STAR_TEXT.split("t # 1")[0])
    argv = ["search", "--db", square_star_db, "--query", str(query), "--tau", "4", "--json"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and {m["id"] for m in payload["matches"]} == {0, 1}
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "3"])
    assert exc.value.code == 2


def test_gen_deterministic_and_dense(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["--count", "10", "--min-vertices", "5", "--max-vertices", "5",
            "--density", "1.0", "--vertex-labels", "2", "--edge-labels", "2",
            "--seed", "9"]
    assert main(["gen", str(out1), *args]) == 0
    assert main(["gen", str(out2), *args]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    graphs, _ = parse_graph_db(out1.read_text())
    assert all(g.n == 5 and g.m == 10 for _, g in graphs)


def test_gen_density_matches_request(tmp_path, capsys):
    out = tmp_path / "mini.txt"
    assert main(["gen", str(out), "--count", "100", "--min-vertices", "8",
                 "--max-vertices", "12", "--density", "0.3",
                 "--vertex-labels", "20", "--edge-labels", "5", "--seed", "4"]) == 0
    capsys.readouterr()
    graphs, _ = parse_graph_db(out.read_text())
    assert len(graphs) == 100
    for _, g in graphs:
        max_edges = g.n * (g.n - 1) // 2
        assert g.m == round(0.3 * max_edges)


def test_gen_rejects_bad_density(tmp_path, capsys):
    code = main(["gen", str(tmp_path / "x.txt"), "--density", "1.5"])
    assert code == 2


def test_inspect_json(square_star_db, capsys):
    code, payload = run_json(capsys, ["inspect", square_star_db, "0", "1"])
    assert code == 0
    assert payload["partition"] == {"lambda": 2, "classes": [[0, 1, 2], [3]]}
    assert sorted(payload["order"]) == [0, 1, 2, 3]
    assert payload["predicted_layer_counts"] == [1, 2, 3, 4, 4]
    assert "lb" not in payload


def test_inspect_prints_the_default_order(pendant_pair_db, capsys):
    # The order a default run processes, not the paper's dfs order
    # (1, 3, 0, 2, 4) of this graph.
    code, payload = run_json(capsys, ["inspect", pendant_pair_db, "0", "1"])
    assert code == 0
    assert payload["order_policy"] == "connected"
    assert payload["order"] == [3, 4, 0, 2, 1]


def test_order_flag(pendant_pair_db, capsys, monkeypatch):
    # dist and bench pass --order to the engine, connected when it is not
    # given; every policy finds the same distance.
    seen = []
    engine_run = cli.bss_ged

    def recording(*args, **kwargs):
        seen.append(kwargs["order_policy"])
        return engine_run(*args, **kwargs)

    monkeypatch.setattr(cli, "bss_ged", recording)
    dists = set()
    for flags in ([], ["--order", "connected"], ["--order", "dfs"], ["--order", "default"]):
        code, payload = run_json(capsys, ["dist", pendant_pair_db, "0", "1", "--json", *flags])
        assert code == 0
        dists.add(payload["ged"])
        code, payload = run_json(capsys, ["bench", pendant_pair_db, "--queries", "0",
                                          "--targets", "1", "--json", *flags])
        assert code == 0
        dists.add(payload["rows"][0]["ged"])
    assert dists == {5}
    assert seen == [p for p in ("connected", "connected", "dfs", "default") for _ in range(2)]
    for command in (["dist", pendant_pair_db, "0", "1"], ["bench", pendant_pair_db]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--order", "random"])
        assert exc.value.code == 2


def test_inspect_runs_layer_recurrence_once(tmp_path, capsys, monkeypatch):
    # Every layer's count comes from one run of the recurrence, and the
    # output is the line the per-layer counts would print. Graph 0 is the
    # larger, so a default run, and inspect, search from graph 1 into it.
    path = tmp_path / "pair.txt"
    entries, _ = random_graph_db(0, 2, 9, 12, 0.3, 3, 2)
    path.write_text(serialize_graph_db(entries))
    (_, q), (_, g) = entries
    assert g.n < q.n
    runs = []
    recurrence = successors.predicted_layer_counts

    def counted(*args):
        runs.append(args)
        return recurrence(*args)

    monkeypatch.setattr(successors, "predicted_layer_counts", counted)
    monkeypatch.setattr(cli, "predicted_layer_counts", counted)
    assert main(["inspect", str(path), "0", "1"]) == 0
    out = capsys.readouterr().out
    assert len(runs) == 1
    payload = json.loads(out)
    assert payload["source"] == 1
    sizes = [len(c) for c in vertex_partition(q).classes]
    per_layer = [successors.predicted_layer_count(l, g.n, q.n, sizes) for l in range(g.n + 1)]
    assert payload["predicted_layer_counts"] == per_layer
    assert out == json.dumps(payload) + "\n"


def test_inspect_describes_the_run_dist_makes(pendant_pair_db, capsys):
    # Graph 0 has 5 vertices and graph 1 has 6, so a default exact run on
    # (1, 0) searches from graph 0, and inspect prints graph 0's order and
    # graph 1's partition. The bounds stay as called: delta1 counts
    # deletions from graph 1.
    code, swapped = run_json(capsys, ["inspect", pendant_pair_db, "1", "0", "--bounds"])
    assert code == 0
    assert (swapped["g"], swapped["q"], swapped["source"]) == (1, 0, 0)
    assert swapped["order"] == [3, 4, 0, 2, 1]
    code, as_called = run_json(capsys, ["inspect", pendant_pair_db, "0", "1", "--bounds"])
    assert as_called["source"] == 0
    for key in ("partition", "order", "predicted_layer_counts", "lb"):
        assert swapped[key] == as_called[key]
    assert len(swapped["predicted_layer_counts"]) == 6
    assert (swapped["delta1"], swapped["delta2"]) == (as_called["delta2"], as_called["delta1"])


def test_inspect_bounds(square_star_db, capsys):
    code, payload = run_json(capsys, ["inspect", square_star_db, "0", "1", "--bounds"])
    assert code == 0
    assert payload["lb"] == 4
    assert payload["delta1"] == 2 and payload["delta2"] == 1


def test_pair_commands_build_no_search_index(square_star_db, capsys, monkeypatch):
    # dist, oracle, inspect and bench read graphs by id; only search needs
    # the database's summaries, partitions and label masks.
    def untimed(payload):
        if isinstance(payload, dict):
            return {k: untimed(v) for k, v in payload.items() if k != "time_ms"}
        if isinstance(payload, list):
            return [untimed(v) for v in payload]
        return payload

    commands = (
        ["dist", square_star_db, "0", "1", "--json"],
        ["oracle", square_star_db, "0", "1"],
        ["inspect", square_star_db, "0", "1", "--bounds"],
        ["bench", square_star_db, "--json"],
    )
    expected = [run_json(capsys, argv) for argv in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("GraphDatabase built outside search")

    monkeypatch.setattr(GraphDatabase, "from_graphs", refuse)
    for argv, (code, payload) in zip(commands, expected):
        assert code == 0
        assert untimed(run_json(capsys, argv)[1]) == untimed(payload), argv


def test_bench_json_solve_ratio(square_star_db, capsys):
    code, payload = run_json(capsys, ["bench", square_star_db, "--json"])
    assert code == 0
    assert payload["solve_ratio"] == 1.0
    assert len(payload["rows"]) == 4
    diag = [r for r in payload["rows"] if r["query"] == r["target"]]
    assert all(r["ged"] == 0 for r in diag)
    assert all(r["status"] == "exact" and "reason" not in r for r in payload["rows"])


def test_bench_json_budget_reasons(square_star_db, capsys):
    for flags, reason in ((["--budget", "2"], "nodes"), (["--time-limit", "0"], "time")):
        code, payload = run_json(capsys, ["bench", square_star_db, *flags, "--json"])
        assert code == 0
        assert payload["solve_ratio"] == 0.0
        for r in payload["rows"]:
            assert r["ged"] is None and r["status"] == "budget_exhausted"
            assert r["reason"] == reason and "upper_bound" in r


def test_bench_width_sweep_consistent(pendant_pair_db, capsys):
    values = set()
    for w in ("1", "5", "15", "50"):
        code, payload = run_json(
            capsys, ["bench", pendant_pair_db, "--queries", "1", "--targets", "0",
                     "--beam", w, "--json"])
        assert code == 0
        values.add(payload["rows"][0]["ged"])
    assert len(values) == 1


def test_bench_reduced_expands_no_more_than_basic(square_star_db, pendant_pair_db, capsys):
    for db in (square_star_db, pendant_pair_db):
        _, basic = run_json(capsys, ["bench", db, "--succ", "basic", "--json"])
        _, reduced = run_json(capsys, ["bench", db, "--succ", "reduced", "--json"])
        for rb, rr in zip(basic["rows"], reduced["rows"]):
            assert rr["expanded"] <= rb["expanded"]
            assert rr["ged"] == rb["ged"]


def test_dist_and_bench_print_one_record(square_star_db, pendant_pair_db, capsys):
    # A pair that finishes, one that runs out of nodes, and one that a
    # default run searches from its smaller graph: bench's row for target a
    # and query b is dist a b's record, timing apart.
    statuses = []
    for db, a, b, flags in ((square_star_db, "0", "1", []),
                            (square_star_db, "0", "1", ["--budget", "2"]),
                            (pendant_pair_db, "1", "0", [])):
        _, record = run_json(capsys, ["dist", db, a, b, "--json", *flags])
        _, table = run_json(capsys, ["bench", db, "--queries", b, "--targets", a, "--json", *flags])
        (row,) = table["rows"]
        assert (row.pop("query"), row.pop("target")) == (int(b), int(a))
        assert row.keys() == record.keys()
        assert {k: v for k, v in row.items() if k != "time_ms"} == \
            {k: v for k, v in record.items() if k != "time_ms"}
        statuses.append(record["status"])
    assert statuses == ["exact", "budget_exhausted", "exact"]


def _table_rows(out: str) -> list[list[str]]:
    return [line.split() for line in out.splitlines()[1:-1]]


def test_bench_human_table(square_star_db, pendant_pair_db, capsys):
    assert main(["bench", square_star_db, "--queries", "0", "--targets", "1"]) == 0
    out = capsys.readouterr().out
    assert "solve ratio: 1.000" in out
    assert out.split()[:6] == ["query", "target", "ged", "status", "reason", "upper_bound"]
    assert _table_rows(out)[0][:6] == ["0", "1", "4", "exact", "-", "-"]

    # Unsolved rows say which budget ran out and the best bound, as the JSON does.
    for flags, reason in ((["--budget", "2"], "nodes"), (["--time-limit", "0"], "time")):
        assert main(["bench", square_star_db, "--queries", "1", "--targets", "0", *flags]) == 0
        out = capsys.readouterr().out
        assert "solve ratio: 0.000" in out
        assert _table_rows(out)[0][:6] == ["1", "0", "-", "budget_exhausted", reason, "4"]
    assert main(["bench", pendant_pair_db, "--queries", "1", "--targets", "0",
                 "--beam", "1", "--budget", "10", "--order", "dfs"]) == 0
    out = capsys.readouterr().out
    assert _table_rows(out)[0][:6] == ["1", "0", "-", "budget_exhausted", "nodes", "5"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("t # 0\nv 0 A\ne 0 0 a\n")
    assert main(["dist", str(bad), "0", "0"]) == 4
    assert "parse error" in capsys.readouterr().err


def test_usage_error_exit_code(square_star_db):
    with pytest.raises(SystemExit) as exc:
        main(["dist", square_star_db])
    assert exc.value.code == 2


def test_unknown_graph_id(square_star_db, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", square_star_db, "0", "9"])
    assert exc.value.code == 2
    assert "graph id 9" in capsys.readouterr().err


def test_missing_file_exit_code(square_star_db, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["dist", missing, "0", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.txt" in err
    assert main(["search", "--db", square_star_db, "--query", missing, "--tau", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.txt" in err


def test_search_negative_tau_exit_code(square_star_db, tmp_path, capsys):
    query = tmp_path / "query.txt"
    query.write_text(SQUARE_STAR_TEXT.split("t # 1")[0])
    assert main(["search", "--db", square_star_db, "--query", str(query), "--tau", "-1"]) == 2
    assert "threshold" in capsys.readouterr().err


def test_search_zero_beam_exit_code(square_star_db, tmp_path, capsys):
    # A one-vertex query is too small for either graph at tau 0, so no
    # candidate reaches the engine; the beam width is rejected anyway.
    query = tmp_path / "query.txt"
    query.write_text("t # 0\nv 0 A\n")
    argv = ["search", "--db", square_star_db, "--query", str(query), "--tau", "0", "--json"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and payload["candidates"] == 0
    assert main(argv + ["--beam", "0"]) == 2
    assert "beam width" in capsys.readouterr().err


def test_search_checks_flags_before_reading(square_star_db, capsys, monkeypatch):
    # The database is never indexed and the query file never announced:
    # the one line on stderr is the flag's error.
    def refuse(*args, **kwargs):
        raise AssertionError("GraphDatabase built before the flags were checked")

    monkeypatch.setattr(GraphDatabase, "from_graphs", refuse)
    argv = ["search", "--db", square_star_db, "--query", square_star_db, "--tau", "1"]
    for flags, word in ((["--tau", "-1"], "threshold"), (["--beam", "0"], "beam width"),
                        (["--budget", "0"], "node budget")):
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert word in captured.err


def test_dist_bad_budget_exit_code(square_star_db, capsys):
    for budget in ("0", "-5"):
        assert main(["dist", square_star_db, "0", "1", "--budget", budget]) == 2
        assert "node budget" in capsys.readouterr().err


def test_bench_negative_time_limit_exit_code(square_star_db, capsys):
    # NaN passes a `< 0` check and then never expires, so it is rejected too.
    for limit in ("-1", "nan"):
        argv = ["bench", square_star_db, "--queries", "0", "--targets", "1", "--time-limit", limit]
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "time limit" in captured.err


@pytest.mark.parametrize("flag", ["--queries", "--targets"])
def test_bench_empty_id_list_exit_code(square_star_db, capsys, flag):
    # An explicit empty list is a usage error, not "every graph".
    assert main(["bench", square_star_db, flag, "", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_negative_count_exit_code(tmp_path, capsys):
    out = tmp_path / "bad.txt"
    assert main(["gen", str(out), "--count", "-1"]) == 2
    assert "graph count" in capsys.readouterr().err
    assert not out.exists()


def test_search_bad_budget_exit_code(square_star_db, tmp_path, capsys):
    # Rejected whether or not any candidate reaches the engine.
    query = tmp_path / "query.txt"
    for text, tau in ((SQUARE_STAR_TEXT.split("t # 1")[0], "4"), ("t # 0\nv 0 A\n", "0")):
        query.write_text(text)
        argv = ["search", "--db", square_star_db, "--query", str(query), "--tau", tau]
        assert main(argv + ["--budget", "-1"]) == 2
        assert "node budget" in capsys.readouterr().err
