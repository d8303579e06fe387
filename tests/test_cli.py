"""Command-line interface: exit codes, certificates on stdout, corpus CSV."""

import json

import pytest
from click.testing import CliRunner

from oddminorkit import (
    parse_certificate,
    to_graph6,
    verify_certificate,
)
from oddminorkit.cli import main
from oddminorkit.certificates import certify_cover, serialize_certificate
from oddminorkit.generators import chorded_subdivision, complete, complete_bipartite, cycle
from oddminorkit.graph import Graph, parse_graph


@pytest.fixture
def runner():
    return CliRunner()


def write_graph(tmp_path, G, name="g.g6"):
    p = tmp_path / name
    p.write_text(to_graph6(G) + "\n")
    return str(p)


def test_gen_graph6_and_embedding_certificate(runner):
    res = runner.invoke(main, ["gen", "complete_bipartite", "3", "3"])
    assert res.exit_code == 0
    G = parse_graph(res.output.strip().encode(), "graph6")
    assert G == complete_bipartite(3, 3)

    res = runner.invoke(main, ["gen", "join_subdivision", "4", "3"])
    assert res.exit_code == 0
    graph_line, cert_line = res.output.strip().split("\n")
    G = parse_graph(graph_line.encode(), "graph6")
    assert G.n == 25
    cert = parse_certificate(cert_line)
    ok, reason = verify_certificate(G, cert)
    assert ok, reason


def test_gen_rejects_bad_family(runner):
    res = runner.invoke(main, ["gen", "moebius", "7"])
    assert res.exit_code == 4


def test_gen_graph6_past_its_short_form_is_an_input_error(runner):
    res = runner.invoke(main, ["gen", "cycle", "63"])
    assert res.exit_code == 4, res.output
    assert "n <= 62" in res.output
    res = runner.invoke(main, ["gen", "cycle", "63", "--format", "dimacs"])
    assert res.exit_code == 0
    assert parse_graph(res.output.encode(), "dimacs") == cycle(63)


@pytest.mark.parametrize("builder, params", [
    ("complete", ["complete", "100000000"]),
    ("complete_bipartite", ["complete_bipartite", "500", "501"]),
    ("cycle", ["cycle", "1001"]),
    ("random_graph", ["random", "1001", "0.5"]),
    ("join_subdivision", ["join_subdivision", "40", "10"]),
    ("join_subdivision", ["join_subdivision", "2", "1", "1000"]),
    ("chorded_subdivision", ["chorded_subdivision", "20", "10", "1"]),
])
def test_gen_refuses_oversized_requests_before_building(
        runner, monkeypatch, builder, params):
    from oddminorkit import cli

    def must_not_build(*args):
        raise AssertionError(f"{builder} was called for {params}")

    monkeypatch.setattr(cli, builder, must_not_build)
    res = runner.invoke(main, ["gen", *params, "--format", "dimacs"])
    assert res.exit_code == 4, res.output
    assert "limit" in res.output


def test_detect_certificate_and_exit_code(runner, tmp_path):
    c5 = write_graph(tmp_path, cycle(5))
    res = runner.invoke(main, ["detect", c5, "--t", "3"])
    assert res.exit_code == 2
    cert = parse_certificate(res.output.strip())
    assert cert.kind == "odd-minor-model"

    k33 = write_graph(tmp_path, complete_bipartite(3, 3))
    res = runner.invoke(main, ["detect", k33, "--t", "3"])
    assert res.exit_code == 0
    assert res.output.strip() == "absent"


def test_detect_signed_mode(runner, tmp_path):
    k6 = write_graph(tmp_path, complete(6))
    res = runner.invoke(main, ["detect", k6, "--mode", "signed", "--t", "3"])
    assert res.exit_code == 2
    assert parse_certificate(res.output.strip()).kind == "signed-minor-model"


def test_detect_signed_mode_checks_sizes_before_building_k_t(
        runner, tmp_path, monkeypatch):
    from oddminorkit import cli

    real = cli.complete

    def pattern_no_larger_than_c5(n):
        assert n <= 5, f"built a {n}-vertex pattern for a 5-vertex graph"
        return real(n)

    monkeypatch.setattr(cli, "complete", pattern_no_larger_than_c5)
    c5 = write_graph(tmp_path, cycle(5))
    args = ["detect", c5, "--mode", "signed", "--t", "200", "--sigma"]
    res = runner.invoke(main, args + ["[[0, 199]]"])
    assert res.exit_code == 0 and res.output.strip() == "absent"
    for bad in ("[[0, 200]]", "[[-1, 3]]", "[[4, 4]]", "[[0, 1, 2]]", "[1]", "{}"):
        res = runner.invoke(main, args + [bad])
        assert res.exit_code == 4, bad


def test_detect_subdivision_mode(runner, tmp_path):
    k33 = write_graph(tmp_path, complete_bipartite(3, 3))
    res = runner.invoke(main, ["detect", k33, "--mode", "subdivision",
                               "--s", "2", "--t", "2"])
    assert res.exit_code == 2
    assert parse_certificate(res.output.strip()).kind == "subdivision"


def test_size_guard_exit_code(runner, tmp_path):
    from oddminorkit.graph import Graph

    big = write_graph(tmp_path, Graph(18, []))
    res = runner.invoke(main, ["detect", big, "--t", "2"])
    assert res.exit_code == 3
    assert "find_odd_clique_minor" in res.output and "18 > 14" in res.output
    res = runner.invoke(main, ["detect", big, "--t", "2", "--limit", "18"])
    assert res.exit_code == 0


def test_color_precheck_obeys_the_size_guard(runner, tmp_path, monkeypatch):
    # the default precheck runs on C5; a guard below its size exits 3
    monkeypatch.setenv("ODDMINOR_LIMIT", "4")
    c5 = write_graph(tmp_path, cycle(5))
    res = runner.invoke(main, ["color", c5, "--t", "3"])
    assert res.exit_code == 3
    assert "find_odd_clique_minor: graph has 5 > 4 vertices" in res.output


def test_missing_input_is_an_input_error(runner, tmp_path):
    res = runner.invoke(main, ["detect", str(tmp_path / "nope.g6"), "--t", "3"])
    assert res.exit_code == 4


@pytest.mark.parametrize("args", [
    ["gen", "cycle", "5"],
    ["detect", "C5", "--t", "3"],
    ["color", "C5", "--t", "3"],
    ["color", "K33", "--t", "3"],
    ["corpus", "--sweep", "cycle:4-5", "--t", "3"],
])
def test_unwritable_out_is_an_input_error(runner, tmp_path, args):
    paths = {"C5": write_graph(tmp_path, cycle(5), "c5.g6"),
             "K33": write_graph(tmp_path, complete_bipartite(3, 3), "k33.g6")}
    out = str(tmp_path / "missing-dir" / "out")
    res = runner.invoke(main, [paths.get(a, a) for a in args] + ["--out", out])
    assert res.exit_code == 4, res.output
    assert res.output.startswith(f"error: cannot write {out}")
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_unwritable_gen_certificate_is_an_input_error(runner, tmp_path):
    out = tmp_path / "js.g6"
    (tmp_path / "js.g6.cert.json").mkdir()  # a directory cannot be opened for writing
    res = runner.invoke(main, ["gen", "join_subdivision", "2", "2", "--out", str(out)])
    assert res.exit_code == 4, res.output
    assert "cannot write" in res.output and out.exists()


@pytest.mark.parametrize("args", [
    ["detect", "C5"],  # missing --t
    ["gen", "join_subdivision", "-100000", "2"],  # -100000 reads as an option
    ["color", "C5", "--t", "three"],
    ["no-such-command"],
])
def test_usage_errors_exit_4_not_the_certificate_code(runner, tmp_path, args):
    c5 = write_graph(tmp_path, cycle(5))
    res = runner.invoke(main, [c5 if a == "C5" else a for a in args])
    assert res.exit_code == 4, res.output
    assert "Usage:" in res.output


def test_color_success_and_odd_minor(runner, tmp_path):
    k33 = write_graph(tmp_path, complete_bipartite(3, 3))
    res = runner.invoke(main, ["color", k33, "--t", "3", "--trace"])
    assert res.exit_code == 0
    cert_line, report_line = res.output.strip().split("\n")
    cert = parse_certificate(cert_line)
    assert cert.kind == "coloring"
    ok, reason = verify_certificate(complete_bipartite(3, 3), cert)
    assert ok, reason
    report = json.loads(report_line)
    assert report["palette_used"] <= report["bound_palette"] == 9
    assert "recursion_trace" in report

    c5 = write_graph(tmp_path, cycle(5))
    res = runner.invoke(main, ["color", c5, "--t", "3"])
    assert res.exit_code == 2
    assert parse_certificate(res.output.strip()).kind == "odd-minor-model"


def test_color_out_file_verifies(runner, tmp_path):
    k44 = write_graph(tmp_path, complete_bipartite(4, 4))
    cert = str(tmp_path / "k44.cert")
    res = runner.invoke(main, ["color", k44, "--t", "3", "--out", cert])
    assert res.exit_code == 0
    assert json.loads(res.output)["bound_palette"] == 9
    res = runner.invoke(main, ["verify", k44, cert])
    assert res.exit_code == 0
    assert res.output.strip() == "true ok"


def test_color_is_deterministic(runner, tmp_path):
    k33 = write_graph(tmp_path, complete_bipartite(3, 3))
    a = runner.invoke(main, ["color", k33, "--t", "3"])
    b = runner.invoke(main, ["color", k33, "--t", "3"])
    assert a.output == b.output


def test_decompose_both_outcomes(runner, tmp_path):
    G, _, _ = chorded_subdivision(2, 2, 1, seed=3)
    packed = write_graph(tmp_path, G, "packed.g6")
    res = runner.invoke(main, ["decompose", packed, "--t", "2",
                               "--limit", "200"])
    assert res.exit_code == 2
    assert parse_certificate(res.output.strip()).kind == "odd-minor-model"

    G, _, _ = chorded_subdivision(2, 2, 0, seed=3)
    plain = write_graph(tmp_path, G, "plain.g6")
    res = runner.invoke(main, ["decompose", plain, "--t", "2",
                               "--limit", "200"])
    assert res.exit_code == 0
    cert = parse_certificate(res.output.strip())
    assert cert.kind == "decomposition"
    ok, reason = verify_certificate(G, cert)
    assert ok, reason


def test_decompose_without_subdivision_is_input_error(runner, tmp_path):
    c5 = write_graph(tmp_path, cycle(5))
    res = runner.invoke(main, ["decompose", c5, "--t", "2"])
    assert res.exit_code == 4


def test_ep_packing_and_cover(runner, tmp_path):
    k6 = write_graph(tmp_path, complete(6))
    res = runner.invoke(main, ["ep", k6, "--s-set", "0,1,2,3", "--l", "2"])
    assert res.exit_code == 0
    cert = parse_certificate(res.output.strip())
    assert cert.kind == "packing"
    ok, _ = verify_certificate(complete(6), cert)
    assert ok

    k33 = write_graph(tmp_path, complete_bipartite(3, 3))
    res = runner.invoke(main, ["ep", k33, "--s-set", "0,1,2", "--l", "2"])
    assert res.exit_code == 0
    assert parse_certificate(res.output.strip()).kind == "cover"


def test_verify_command(runner, tmp_path):
    c5 = write_graph(tmp_path, cycle(5))
    res = runner.invoke(main, ["detect", c5, "--t", "3",
                               "--out", str(tmp_path / "c.json")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", c5, str(tmp_path / "c.json")])
    assert res.exit_code == 0 and res.output.strip() == "true ok"

    # against the wrong graph: hash mismatch, input error
    c7 = write_graph(tmp_path, cycle(7), "c7.g6")
    res = runner.invoke(main, ["verify", c7, str(tmp_path / "c.json")])
    assert res.exit_code == 4

    # tampered payload: soft false with a reason
    doc = json.loads((tmp_path / "c.json").read_text())
    tree = next(vs for vs in doc["payload"]["trees"].values() if len(vs) > 1)
    key = str(tree[0])
    doc["payload"]["alpha"][key] = 3 - doc["payload"]["alpha"][key]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    res = runner.invoke(main, ["verify", c5, str(tmp_path / "bad.json")])
    assert res.exit_code == 0
    assert res.output.strip() == "false bichromatic-violation"


def test_corpus_sweep_and_determinism(runner):
    args = ["corpus", "--sweep", "cycle:3-7", "--t", "3"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0].startswith("instance,n,m,t,mode,outcome")
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == [f"cycle({n})" for n in range(3, 8)]
    outcomes = {r[0]: r[5] for r in rows}
    assert outcomes["cycle(4)"] == outcomes["cycle(6)"] == "colored"
    assert outcomes["cycle(3)"] == outcomes["cycle(5)"] == "odd-minor-found"
    # identical runs yield identical CSVs except for the timing column
    res2 = runner.invoke(main, args)
    strip = lambda out: [l.rsplit(",", 1)[0] for l in out.strip().split("\n")]
    assert strip(res.output) == strip(res2.output)


def test_corpus_empty_is_header_only(runner):
    res = runner.invoke(main, ["corpus", "--t", "3"])
    assert res.exit_code == 0
    assert res.output.strip() == (
        "instance,n,m,t,mode,outcome,palette_used,bound_palette,achieved,seconds"
    )


@pytest.mark.parametrize("t", ["1", "0", "-3"])
def test_corpus_refuses_t_below_two(runner, t):
    res = runner.invoke(main, ["corpus", "--sweep", "cycle:4-5", "--t", t])
    assert res.exit_code == 4, res.output
    assert "t must be >= 2" in res.output


@pytest.mark.parametrize("builder, small, spec", [
    ("cycle", "cycle:3-4", "cycle:1001-1001"),
    ("cycle", "cycle:3-4", "cycle:3-1200"),
    ("random_graph", "random:3,0.5,1", "random:1500,0.001,1"),
    ("complete_bipartite", "complete_bipartite:1,1", "complete_bipartite:500,501"),
])
def test_corpus_refuses_oversized_sweeps_before_building(
        runner, monkeypatch, builder, small, spec):
    from oddminorkit import cli

    def must_not_build(*args):
        raise AssertionError(f"{builder} was called for {spec}")

    monkeypatch.setattr(cli, builder, must_not_build)
    # the small spec ahead of the oversized one is not built either
    res = runner.invoke(main, ["corpus", "--sweep", small, "--sweep", spec, "--t", "2"])
    assert res.exit_code == 4, res.output
    assert "limit" in res.output


def test_corpus_builds_each_sweep_graph_when_its_row_is_due(runner, monkeypatch):
    from oddminorkit import cli

    events = []
    real_build, real_color = cli.random_graph, cli._color_once

    def build(n, p, seed):
        events.append(f"build {seed}")
        return real_build(n, p, seed)

    def color(G, *args):
        events.append("color")
        return real_color(G, *args)

    monkeypatch.setattr(cli, "random_graph", build)
    monkeypatch.setattr(cli, "_color_once", color)
    res = runner.invoke(main, ["corpus", "--sweep", "random:6,0.3,4", "--t", "3"])
    assert res.exit_code == 0, res.output
    assert len(res.output.strip().split("\n")) == 5
    assert events == [e for k in range(4) for e in (f"build {k}", "color")]


@pytest.mark.parametrize("spec", ["cycle:2-5", "random:5,x,3", "random:5,1.5,3"])
def test_corpus_refuses_a_bad_sweep_before_any_row(runner, spec):
    res = runner.invoke(main, ["corpus", "--sweep", "cycle:3-4", "--sweep", spec, "--t", "3"])
    assert res.exit_code == 4, res.output
    assert "instance," not in res.output


def grid_with_a_triangle(k):
    """The k x k grid with a triangle hung on its far corner. Every path
    between grid vertices 0 and 2 is even, but odd walks exist, so the
    S-path search cannot prune by walk parity."""
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    far = k * k - 1
    return Graph(k * k + 2, edges + [(far, far + 1), (far + 1, far + 2), (far, far + 2)])


# (args, environment, exit code, start of the last output line)
CONTRACT = [
    (["gen", "cycle"], {}, 4, "error: cycle takes parameters N, got 0"),
    (["gen", "cycle", "5", "7"], {}, 4, "error: cycle takes parameters N, got 2"),
    (["detect", "C5", "--t", "3", "--mode", "subdivision"], {}, 4,
     "error: subdivision mode needs --s"),
    (["color", "C5", "--t", "1"], {}, 4, "error: t must be >= 2"),
    (["decompose", "C5", "--t", "2"], {}, 4, "error: "),
    (["ep", "C5", "--s-set", "0,x", "--l", "1"], {}, 4, "error: "),
    (["verify", "C5", "MISSING"], {}, 4, "error: cannot read certificate"),
    (["corpus", "--sweep", "bogus:1", "--t", "3"], {}, 4, "error: unknown sweep spec"),
    (["detect", "E31", "--t", "3"], {}, 3, "size guard: find_odd_clique_minor: "),
    (["color", "C5", "--t", "3"], {"ODDMINOR_LIMIT": "4"}, 3,
     "size guard: find_odd_clique_minor: "),
    (["decompose", "E31", "--t", "2"], {}, 3,
     "size guard: find_bipartite_join_subdivision: graph has 31 > 30"),
    (["ep", "E21", "--s-set", "0,1", "--l", "1"], {}, 3,
     "size guard: odd_s_paths_dichotomy: graph has 21 > 20"),
    (["verify", "GRID", "COVER"], {}, 3, "size guard: find_odd_s_path: graph has 38 > 20"),
    # bound_N(2t - 2, t) passes the float range from t = 43 up
    (["color", "K33", "--t", "43"], {}, 0, '{"bound_N":null,'),
    (["corpus", "--sweep", "cycle:3", "--t", "3"], {}, 4,
     "error: sweep spec 'cycle:3' needs the shape cycle:A-B"),
    (["corpus", "--sweep", "complete_bipartite:1", "--t", "3"], {}, 4,
     "error: sweep spec 'complete_bipartite:1' needs the shape complete_bipartite:M,N"),
    (["corpus", "--sweep", "cycle:a-b", "--t", "3"], {}, 4,
     "error: sweep spec 'cycle:a-b' needs the shape cycle:A-B"),
    (["corpus", "--sweep", "cycle:5-3", "--t", "3"], {}, 4,
     "error: sweep spec 'cycle:5-3' builds no graph"),
    (["corpus", "--sweep", "complete_bipartite:0,3", "--t", "3"], {}, 4,
     "error: sweep spec 'complete_bipartite:0,3' builds no graph"),
    (["corpus", "--sweep", "random:5,0.3,0", "--t", "3"], {}, 4,
     "error: sweep spec 'random:5,0.3,0' builds no graph"),
    (["gen", "cycle", "x"], {}, 4, "error: cycle takes parameters N, got 'x'"),
    (["gen", "random", "5", "y"], {}, 4, "error: random takes parameters N P, got '5 y'"),
    # a signature edge is listed once, in either orientation, and true is no
    # vertex id: each of these was written out as read and then verified
    (["detect", "K5", "--t", "3", "--mode", "signed", "--sigma", "[[0,1],[1,0]]"], {}, 4,
     "error: signature edge [1, 0] is listed twice"),
    (["detect", "K5", "--t", "3", "--mode", "signed", "--sigma", "[[0,1],[0,1]]"], {}, 4,
     "error: signature edge [0, 1] is listed twice"),
    (["detect", "K5", "--t", "3", "--mode", "signed", "--sigma", "[[0,true]]"], {}, 4,
     "error: signature edge [0, True] not in K_3"),
]


@pytest.mark.parametrize("args, env, code, line", CONTRACT)
def test_every_command_exits_0_2_3_or_4(runner, tmp_path, monkeypatch, args, env, code, line):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    grid = grid_with_a_triangle(6)
    cover = tmp_path / "cover.json"
    cover.write_text(serialize_certificate(certify_cover(grid, [0, 2], 1, [])))
    paths = {"C5": write_graph(tmp_path, cycle(5), "c5.g6"),
             "K33": write_graph(tmp_path, complete_bipartite(3, 3), "k33.g6"),
             "K5": write_graph(tmp_path, complete(5), "k5.g6"),
             "E21": write_graph(tmp_path, Graph(21, []), "e21.g6"),
             "E31": write_graph(tmp_path, Graph(31, []), "e31.g6"),
             "GRID": write_graph(tmp_path, grid, "grid.g6"),
             "COVER": str(cover),
             "MISSING": str(tmp_path / "missing.json")}
    res = runner.invoke(main, [paths.get(a, a) for a in args])
    assert res.exit_code == code, res.output
    assert res.output.strip().split("\n")[-1].startswith(line), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
