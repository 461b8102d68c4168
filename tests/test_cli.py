"""Edge-list parsing, report rendering, and the command pipelines."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import dicuts
from dicuts import (
    Digraph,
    ParseError,
    PreconditionViolated,
    VerificationFailed,
    get_family,
    main,
    parse_digraph,
    run,
    serialize_digraph,
    window,
    window_coherent,
)
from dicuts import cli, enumerate_dicuts, enumeration, hypergraph, solver
from dicuts.cli import EXIT_ERROR, EXIT_OK, EXIT_REFUTED

from .oracles import entering_and_leaving, meets_every_dicut, random_dag


@pytest.fixture()
def p3(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("a b\nb c\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def diamond_path(tmp_path):
    path = tmp_path / "dia.txt"
    path.write_text("s a\ns b\na t\nb t\n", encoding="utf-8")
    return str(path)


def lines_dict(report):
    out = {}
    for key, value in report.lines:
        out.setdefault(key, []).append(value)
    return out


class TestParser:
    def test_basic_edge_list(self):
        d = parse_digraph("a b\nb c\n")
        assert d.edges == (("a", "b"), ("b", "c"))

    def test_comments_and_blank_lines_are_skipped(self):
        d = parse_digraph("# header\n\na b  # trailing\n")
        assert d.edges == (("a", "b"),)

    def test_vertex_directive_declares_isolated_vertices(self):
        d = parse_digraph("%vertex z\na b\n")
        assert "z" in d.vertices and d.m == 1

    def test_unknown_directive_is_a_parse_error(self):
        with pytest.raises(ParseError, match="directive"):
            parse_digraph("%nope x\n")

    def test_wrong_token_count_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_digraph("a\n")
        with pytest.raises(ParseError):
            parse_digraph("a b c\n")

    def test_loops_are_a_parse_error(self):
        with pytest.raises(ParseError, match="loop"):
            parse_digraph("x x\n")

    def test_serialize_then_parse_roundtrips(self):
        text = "%vertex z\na b\na b\nb c\n"
        d = parse_digraph(text)
        assert serialize_digraph(d) == text
        again = parse_digraph(serialize_digraph(d))
        assert again.vertices == d.vertices and again.edges == d.edges


class TestReports:
    def test_reports_render_as_key_value_lines(self, p3):
        report = run("solve", {"input": p3})
        text = report.render()
        assert text.startswith("command: solve\n")
        assert all(": " in line for line in text.splitlines())

    def test_solve_path(self, p3):
        got = lines_dict(run("solve", {"input": p3}))
        assert got["min_dijoin_size"] == ["2"]
        assert got["max_packing_size"] == ["2"]
        assert got["dijoin"] == ["{a->b, b->c}"]

    def test_solve_diamond(self, diamond_path):
        got = lines_dict(run("solve", {"input": diamond_path}))
        assert got["nested"] == ["true"]
        assert len(got["family_member"]) == 2

    def test_enumerate_dibonds(self, diamond_path):
        got = lines_dict(run("enumerate", {"input": diamond_path, "kind": "dibonds"}))
        assert got["count"] == ["4"]
        assert len(got["member"]) == 4

    def test_parallel_edges_are_disambiguated(self, tmp_path):
        path = tmp_path / "par.txt"
        path.write_text("a b\na b\n", encoding="utf-8")
        got = lines_dict(run("enumerate", {"input": str(path), "kind": "dicuts"}))
        assert got["member"] == ["in_shore={b} edges={a->b#0, a->b#1}"]

    def test_cut_labels_read_the_shore_mask(self):
        # A label lists the shore ascending by vertex id, read off the
        # masks, and leaves neither set behind on the cut it lists. With
        # int ids 2 < 10 by value, but "10" < "2" as strings.
        for d in (
            parse_digraph("v10 v2\nv2 v9\nv10 x\nx v9\nv2 x\n"),
            Digraph.from_edges([(1, 2), (1, 10), (2, 10), (10, 3)]),
        ):
            labels = cli._edge_labels(d)
            cuts = enumerate_dicuts(d)
            texts = list(cli._cut_labels(labels, d, cuts))
            assert len(texts) == len(cuts)
            for cut, text in zip(cuts, texts):
                assert "in_shore" not in vars(cut)
                assert "edge_set" not in vars(cut)
                shore = ", ".join(str(v) for v in sorted(cut.in_shore))
                edges = ", ".join(labels[e] for e in sorted(cut.edge_set))
                assert text == f"in_shore={{{shore}}} edges={{{edges}}}"


class TestUncrossCommand:
    def test_auto_pair(self, diamond_path):
        got = lines_dict(run("uncross", {"input": diamond_path}))
        assert got["nested_after"] == ["true"]

    def test_given_pair_needs_no_class_list(self, diamond_path, tmp_path):
        dj = tmp_path / "dijoin.txt"
        dj.write_text("s a\na t\n", encoding="utf-8")
        fam = tmp_path / "crossing.txt"
        fam.write_text("a t\nb t\n", encoding="utf-8")
        # The diamond has four dibonds; listing them would exceed the cap.
        got = lines_dict(
            run("uncross", {"input": diamond_path, "dijoin": str(dj), "family": str(fam), "cap": 3})
        )
        assert got["nested_after"] == ["true"]
        assert len(got["family_member"]) == 2

    def test_given_dijoin_missing_a_dicut_is_refused(self, diamond_path, tmp_path):
        dj = tmp_path / "dijoin.txt"
        dj.write_text("s a\n", encoding="utf-8")
        fam = tmp_path / "family.txt"
        fam.write_text("a t\n", encoding="utf-8")
        with pytest.raises(PreconditionViolated) as exc:
            run("uncross", {"input": diamond_path, "dijoin": str(dj), "family": str(fam)})
        assert str(exc.value) == "dijoin must be a dijoin for the ambient class"

    @pytest.mark.parametrize(
        "text, error",
        [
            ("s a\na t\nx y\n", "ParseError: line 3: no unused edge x->y in the digraph"),
            ("s a\ns a\n", "ParseError: line 2: no unused edge s->a in the digraph"),
            ("s\n", "ParseError: line 1: expected TAIL HEAD"),
        ],
    )
    def test_given_dijoin_names_only_edges_of_the_input(
        self, diamond_path, tmp_path, capsys, text, error
    ):
        # Dijoin lines name edges, so no id outside the digraph reaches uncross.
        dj = tmp_path / "dijoin.txt"
        dj.write_text(text, encoding="utf-8")
        fam = tmp_path / "crossing.txt"
        fam.write_text("a t\nb t\n", encoding="utf-8")
        argv = ["uncross", "--input", diamond_path, "--dijoin", str(dj), "--family", str(fam)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().out == f"command: uncross\nerror: {error}\n"

    def test_manual_flags_must_come_together(self, diamond_path, tmp_path):
        dj = tmp_path / "dijoin.txt"
        dj.write_text("s->a\n", encoding="utf-8")
        with pytest.raises(ValueError):
            run("uncross", {"input": diamond_path, "dijoin": str(dj)})


def parse_set(text):
    inner = text[1:-1]
    return inner.split(", ") if inner else []


def check_full_class_pair(digraph, report):
    """Check a solve or uncross report of the full class with the test
    oracles: each member's edges are those entering its in-shore, each
    member meets the dijoin once, and the dijoin meets every dicut."""
    label_ids = {label: e for e, label in enumerate(cli._edge_labels(digraph))}
    got = lines_dict(report)
    dijoin = frozenset(label_ids[x] for x in parse_set(got["dijoin"][0]))
    members = got["family_member"]
    assert len(members) == len(dijoin)
    for value in members:
        shore, edges = value.split(" edges=")
        shore = frozenset(parse_set(shore[len("in_shore="):]))
        entering, _ = entering_and_leaving(digraph, shore)
        assert frozenset(label_ids[x] for x in parse_set(edges)) == entering
        assert len(entering & dijoin) == 1
    assert meets_every_dicut(digraph, dijoin)
    return len(dijoin)


class TestFullClassIsNotListed:
    """solve, uncross and blocks run on the implicit full class: with the
    dibond walk patched to raise, any listing of a class fails."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("the dibond walk ran")

        monkeypatch.setattr(enumeration, "_dibond_masks", walk)

    @pytest.mark.parametrize("command", ["solve", "uncross"])
    @pytest.mark.parametrize(
        "build, size",
        [
            (lambda: window(get_family("zigzag_d1"), 240).digraph, 240),
            (lambda: random_dag(random.Random("probe:300:0"), 300, 300), 95),
        ],
        ids=["zigzag240", "probe300"],
    )
    def test_large_classes_are_solved(self, tmp_path, command, build, size):
        text = serialize_digraph(build())
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        report = run(command, {"input": str(path)})
        got = lines_dict(report)
        assert got["nested_after" if command == "uncross" else "verified"] == ["true"]
        assert "class_size" not in got
        assert check_full_class_pair(parse_digraph(text), report) == size

    def test_blocks_solves_each_block_as_solve_does(self, tmp_path, capsys):
        path = tmp_path / "probe120.txt"
        path.write_text(serialize_digraph(random_dag(random.Random("probe:120:0"), 120, 120)), "utf-8")
        sizes = []
        for command in ("solve", "blocks"):
            assert main([command, "--input", str(path)]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            sizes.append([line for line in out if line.startswith("min_dijoin_size: ")])
        assert len(sizes[0]) == 1 and sizes[1] == sizes[0]

    def test_cap_bounds_no_listing(self, tmp_path, capsys):
        path = tmp_path / "zigzag10.txt"
        path.write_text(serialize_digraph(window(get_family("zigzag_d1"), 10).digraph), "utf-8")
        assert main(["solve", "--input", str(path), "--cap", "1"]) == EXIT_OK
        assert "min_dijoin_size: 10\n" in capsys.readouterr().out


class TestQuotientCommand:
    def test_quotient_with_export(self, diamond_path, tmp_path):
        shores = tmp_path / "shores.txt"
        shores.write_text("t\na t\n", encoding="utf-8")
        out = tmp_path / "q.txt"
        got = lines_dict(
            run(
                "quotient",
                {
                    "input": diamond_path,
                    "class_file": str(shores),
                    "export": str(out),
                },
            )
        )
        assert got["classes"] == ["3"]
        assert out.read_text(encoding="utf-8") == "b a\na t\nb t\n"

    def test_quotient_requires_a_class_file(self, diamond_path):
        with pytest.raises(ValueError):
            run("quotient", {"input": diamond_path})


class TestShoreFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--class-file", "{shores}"],
            ["uncross", "--class-file", "{shores}"],
            ["quotient", "--class-file", "{shores}"],
            ["uncross", "--dijoin", "{dijoin}", "--family", "{shores}"],
        ],
    )
    def test_a_line_that_is_no_dicut_is_refused_with_its_line(
        self, diamond_path, tmp_path, capsys, argv
    ):
        shores = tmp_path / "shores.txt"
        shores.write_text("t\ns\n", encoding="utf-8")
        dijoin = tmp_path / "dijoin.txt"
        dijoin.write_text("s a\na t\n", encoding="utf-8")
        paths = {"shores": str(shores), "dijoin": str(dijoin)}
        argv = [argv[0], "--input", diamond_path] + [a.format(**paths) for a in argv[1:]]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().out == (
            f"command: {argv[0]}\n"
            "error: ParseError: line 2: s->a leaves the in-shore {s}; not a dicut\n"
        )

    def test_the_leaving_edge_is_named_by_its_label(self, tmp_path):
        path = tmp_path / "parallel.txt"
        path.write_text("s a\ns a\na t\n", encoding="utf-8")
        shores = tmp_path / "shores.txt"
        shores.write_text("a t\n# the source\ns s\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            run("solve", {"input": str(path), "class_file": str(shores)})
        assert str(exc.value) == "line 3: s->a#0 leaves the in-shore {s}; not a dicut"

    @pytest.mark.parametrize("command", ["solve", "uncross", "quotient"])
    def test_a_class_line_that_is_no_dibond_is_refused_with_its_line(
        self, tmp_path, capsys, command
    ):
        # {b} of a->b, c->b is a dicut whose in-shore {b} leaves a and c
        # apart, so it is no dibond; {b, c} is one. quotient's generators
        # may be any dicuts.
        path = tmp_path / "vee.txt"
        path.write_text("a b\nc b\n", encoding="utf-8")
        shores = tmp_path / "shores.txt"
        shores.write_text("b c\nb\n", encoding="utf-8")
        rc = main([command, "--input", str(path), "--class-file", str(shores)])
        out = capsys.readouterr().out
        if command == "quotient":
            assert rc == 0 and "generators: 2\n" in out
        else:
            assert rc == EXIT_ERROR
            assert out == f"command: {command}\nerror: ParseError: line 2: in-shore {{b}} is no dibond\n"


class TestBlocksCommand:
    def test_two_block_digraph(self, tmp_path):
        path = tmp_path / "blk.txt"
        path.write_text("a b\nb a\nb c\nc b\n", encoding="utf-8")
        got = lines_dict(run("blocks", {"input": str(path)}))
        assert got["blocks"] == ["2"]
        assert got["cutvertices"] == ["{b}"]
        assert got["min_dijoin_size"] == ["0"]


class TestHypergraphCommand:
    def test_hyperedge_mode(self, tmp_path):
        path = tmp_path / "hg.txt"
        path.write_text("a b\nb c\nc a\n", encoding="utf-8")
        got = lines_dict(run("hypergraph", {"input": str(path)}))
        assert got["konig"] == ["absent"]
        assert got["fin_check"] == ["true"]

    def test_one_report_packs_the_hyperedges_once(self, tmp_path, monkeypatch):
        # konig_property and fin_parameter_check share one maximum matching.
        calls = []
        packing = hypergraph.exact_max_set_packing

        def counted(sets):
            calls.append(sets)
            return packing(sets)

        monkeypatch.setattr(hypergraph, "exact_max_set_packing", counted)
        path = tmp_path / "hg.txt"
        path.write_text("a b\nb c\nc a\nc d\n", encoding="utf-8")
        got = lines_dict(run("hypergraph", {"input": str(path)}))
        assert got["fin_check"] == ["true"] and len(calls) == 1

    def test_menger_mode(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a x\nx b\na y\ny b\n", encoding="utf-8")
        got = lines_dict(
            run("hypergraph", {"input": str(path), "menger": "a;b"})
        )
        assert got["konig"] == ["present"]
        assert got["matching_size"] == ["1"]
        assert got["cover"] == ["{a}"]

    def test_menger_argument_must_split_in_two(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n", encoding="utf-8")
        assert main(["hypergraph", "--input", str(path), "--menger", "a;b;c"]) == EXIT_ERROR

    def test_hyperedge_input_reads_vertex_directives(self, tmp_path, capsys):
        path = tmp_path / "hg.txt"
        path.write_text("%vertex a\na b\n%vertex z\n", encoding="utf-8")
        assert main(["hypergraph", "--input", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "vertices: 3\n" in out
        assert "hyperedges: 1\n" in out
        assert "matching_member: {a, b}\n" in out
        assert "%vertex" not in out

    @pytest.mark.parametrize(
        "text, error",
        [
            ("a b\n%x a\n", "ParseError: line 2: unknown directive '%x'"),
            ("%vertex\n", "ParseError: line 1: expected %vertex NAME"),
            ("%vertex a b\n", "ParseError: line 1: expected %vertex NAME"),
        ],
    )
    def test_hyperedge_input_directive_errors_are_one_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "hg.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["hypergraph", "--input", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().out == f"command: hypergraph\nerror: {error}\n"

    def test_menger_input_reads_vertex_directives(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("%vertex a\n%vertex b\n", encoding="utf-8")
        assert main(["hypergraph", "--input", str(path), "--menger", "a;b"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hyperedges: 0\n" in out
        assert "%vertex" not in out

    @pytest.mark.parametrize(
        "text, sides, error",
        [
            ("a b\n", "a;q", "ValueError: --menger names unknown vertices: q"),
            ("a b\n", "p,a;b,q", "ValueError: --menger names unknown vertices: p, q"),
            ("a b\nb b\n", "a;b", "ParseError: line 2: loops are not allowed"),
            ("a b c\n", "a;b", "ParseError: line 1: expected TAIL HEAD"),
        ],
    )
    def test_menger_input_errors_are_one_line(self, tmp_path, capsys, text, sides, error):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["hypergraph", "--input", str(path), "--menger", sides]) == EXIT_ERROR
        assert capsys.readouterr().out == f"command: hypergraph\nerror: {error}\n"


class TestFamilyCommand:
    def test_supported_claim_exits_zero(self):
        report = run(
            "family", {"name": "ladder", "check": "no-finite-dicut", "nmax": 3}
        )
        assert report.exit_code == EXIT_OK
        got = lines_dict(report)
        assert got["claim"] == ["every window is strongly connected"]
        assert got["evidence"] == ["supported up to window 3"]

    def test_refuted_intrinsic_claim_exits_two(self):
        report = run(
            "family", {"name": "zigzag_d1", "check": "no-finite-dicut", "nmax": 2}
        )
        assert report.exit_code == EXIT_REFUTED
        assert ("evidence", "refuted at window 1") in report.lines

    def test_missed_dibond_is_shown(self):
        report = run(
            "family",
            {"name": "zigzag_d1", "check": "finitary:spokes_without_first", "nmax": 2},
        )
        assert report.exit_code == EXIT_REFUTED
        got = lines_dict(report)
        assert got["window"][0] == "n=1 hits_all=false missed={a0->b0, a0->b1}"

    def test_expected_absence_reports_its_threshold(self):
        report = run(
            "family",
            {
                "name": "zigzag_d1",
                "check": "nested:verticals_and_first_spoke",
                "nmax": 4,
            },
        )
        assert report.exit_code == EXIT_OK
        got = lines_dict(report)
        assert got["absence_threshold"] == ["1"]

    def test_growth_counts_line(self):
        report = run(
            "family", {"name": "zigzag_d1", "check": "growth:b0->r", "nmax": 5}
        )
        assert ("counts", "1 2 3 4 5") in report.lines

    def test_grid_growth_to_window_12(self, capsys):
        # The cap bounds the dibonds through the edge in each window, not
        # every dibond of it: window 12 alone has over a million dibonds,
        # more than the default cap.
        argv = ["family", "--name", "grid_d2", "--check", "growth:(1,0)->(2,0)", "--nmax", "12"]
        assert main(argv) == EXIT_OK
        assert "counts: 0 1 1 2 2 4 4 8 8 16 57 210\n" in capsys.readouterr().out

    def test_coherence_not_applicable_for_bundled_windows(self):
        report = run(
            "family",
            {"name": "transitive_tournament", "check": "coherence", "nmax": 3},
        )
        assert report.exit_code == EXIT_OK
        got = lines_dict(report)
        assert "not applicable" in got["evidence"][0]

    @pytest.mark.parametrize(
        "name, flags, indices",
        [
            ("zigzag_d1", {"nmax": 6}, [1, 2, 3, 4, 5, 6]),
            ("grid_d2", {"nmax": 4}, [1, 2, 3, 4]),
            ("ladder", {"window": 3}, [3]),
        ],
    )
    def test_coherence_builds_each_window_once(self, monkeypatch, name, flags, indices):
        built = []

        def counting_window(spec, n):
            built.append(n)
            return window(spec, n)

        monkeypatch.setattr(cli, "window", counting_window)
        report = run("family", {"name": name, "check": "coherence", **flags})
        assert sorted(built) == indices
        top = indices[-1]
        assert lines_dict(report)["window"] == [
            f"m={m} n={top} coherent={'true' if window_coherent(get_family(name), m, top) else 'false'}"
            for m in indices
        ]

    def test_coherence_refuses_window_zero_as_window_coherent_does(self, capsys):
        argv = ["family", "--name", "zigzag_d1", "--check", "coherence", "--window", "0"]
        assert main(argv) == EXIT_ERROR
        assert "error: ValueError: window indices must satisfy 1 <= m <= n\n" in capsys.readouterr().out

    def test_compactness_report_lines(self):
        report = run(
            "family", {"name": "ladder", "check": "compactness", "nmax": 3}
        )
        got = lines_dict(report)
        assert got["consistent"] == ["true"]
        assert got["stable_dijoin"] == ["{}"]

    def test_window_export(self, tmp_path):
        out = tmp_path / "win.txt"
        report = run(
            "family",
            {
                "name": "zigzag_d1",
                "check": "no-finite-dicut",
                "window": 2,
                "export": str(out),
            },
        )
        assert report.exit_code == EXIT_REFUTED
        body = out.read_text(encoding="utf-8")
        assert "a0 b0" in body
        classes = (tmp_path / "win.txt.classes").read_text(encoding="utf-8")
        assert classes.splitlines()[0].startswith("class ")


class TestMainEntry:
    def test_success_exit_code(self, p3, capsys):
        assert main(["solve", "--input", p3]) == EXIT_OK
        out = capsys.readouterr().out
        assert "min_dijoin_size: 2" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("x x\n", encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_ERROR
        assert "error: ParseError" in capsys.readouterr().out

    def test_unknown_family_exit_code(self, capsys):
        assert main(["family", "--name", "nope", "--check", "compactness"]) == EXIT_ERROR
        assert "error: ValueError" in capsys.readouterr().out

    def test_disconnected_input_is_refused(self, tmp_path, capsys):
        path = tmp_path / "isolated.txt"
        path.write_text("a b\n%vertex c\n", encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_ERROR
        assert "error: PreconditionViolated: " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "check", ["nested:diagonals", "finitary:diagonals", "compactness", "coherence"]
    )
    def test_nmax_below_one_is_an_error_line(self, check, capsys):
        argv = ["family", "--name", "zigzag_d1", "--check", check, "--nmax", "0"]
        assert main(argv) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "error: ValueError: window index must be at least 1\n" in out

    def test_solve_verifies_once(self, diamond_path, monkeypatch):
        calls = []
        verify = solver.verify_optimal_pair

        def counted(*args):
            calls.append(args)
            verify(*args)

        monkeypatch.setattr(solver, "verify_optimal_pair", counted)
        assert ("verified", "true") in run("solve", {"input": diamond_path}).lines
        assert len(calls) == 1

    def test_verified_line_rests_on_the_library_check(self, diamond_path, monkeypatch, capsys):
        def refuse(*args):
            raise VerificationFailed("planted")

        monkeypatch.setattr(solver, "verify_optimal_pair", refuse)
        assert main(["solve", "--input", diamond_path]) == EXIT_ERROR
        assert capsys.readouterr().out == "command: solve\nerror: VerificationFailed: planted\n"

    def test_missing_file_exit_code(self, capsys):
        assert main(["solve", "--input", "/nonexistent/file.txt"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().out

    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "1"]) == EXIT_OK
        assert "selftest: pass" in capsys.readouterr().out

    def test_selftest_fails_when_the_implicit_solver_disagrees(self):
        # The implicit path, given no class, answers one edge short.
        script = (
            "import sys\n"
            "from dicuts import OptimalPair, cli\n"
            "solve = cli.nested_optimal_pair\n"
            "def short(digraph, klass=None):\n"
            "    pair = solve(digraph, klass)\n"
            "    if klass is None:\n"
            "        pair = OptimalPair(pair.dijoin - {min(pair.dijoin)}, pair.family[1:], True)\n"
            "    return pair\n"
            "cli.nested_optimal_pair = short\n"
            "sys.exit(cli.main(['selftest', '--seed', '0']))\n"
        )
        src = os.path.dirname(os.path.dirname(dicuts.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        # One error line on stdout, as for every refusal, and no traceback.
        assert done.returncode == EXIT_ERROR
        assert done.stdout.splitlines()[-1] == (
            "error: VerificationFailed: selftest: implicit solver disagrees with the listing"
        )
        assert done.stderr == ""


class TestInProcessCommands:
    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_run_refuses_a_usage_error_without_exiting(self, p3, capsys):
        with pytest.raises(ValueError, match=r"'solve'.*'cap': 'x'"):
            run("solve", {"cap": "x", "input": p3})
        assert "invalid int value: 'x'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="'nope'"):
            run("nope")
        with pytest.raises(ValueError, match="'help': True"):
            run("solve", {"help": True})

    @pytest.mark.parametrize("command", ["enumerate", "solve", "uncross", "blocks"])
    def test_main_refuses_a_negative_cap(self, p3, capsys, command):
        assert main([command, "--input", p3, "--cap", "-1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --cap: must be at least 0, got -1" in captured.err

    def test_run_refuses_a_negative_cap(self, p3, capsys):
        with pytest.raises(ValueError, match=r"'solve'.*'cap': -1"):
            run("solve", {"input": p3, "cap": -1})
        assert "argument --cap: must be at least 0, got -1" in capsys.readouterr().err

    def test_a_flag_does_not_leak_into_the_next_command(self, diamond_path, capsys):
        assert main(["enumerate", "--input", diamond_path, "--kind", "dicuts"]) == EXIT_OK
        assert "kind: dicuts\n" in capsys.readouterr().out
        assert main(["enumerate", "--input", diamond_path]) == EXIT_OK
        assert "kind: dibonds\n" in capsys.readouterr().out

    def test_usage_error_and_help_leave_the_parser_as_built(self, p3, capsys):
        cli._build_parser.cache_clear()
        assert main(["solve", "--input", p3]) == EXIT_OK
        lone = capsys.readouterr().out
        cli._build_parser.cache_clear()
        assert main(["solve", "--cap", "x"]) == EXIT_ERROR
        assert main(["--help"]) == EXIT_OK
        assert "{enumerate,solve,uncross,quotient,blocks,family,hypergraph,selftest}" in (
            capsys.readouterr().out
        )
        assert main(["solve", "--input", p3]) == EXIT_OK
        assert capsys.readouterr().out == lone
