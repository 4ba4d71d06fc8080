import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from symconj import cli

HERE = os.path.dirname(__file__)
CORRUPT = os.path.join(HERE, "data", "corrupt_model.txt")
README = os.path.join(os.path.dirname(HERE), "README.md")
UNKNOWN_TAG_MODEL = ("# symconj-graph v1\ninput x (3) FOO\ninput c (3)\n"
                     "prim n2 einsum [i,i->] x c\noutput n2\n")


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "symconj.cli", *argv],
        capture_output=True, text=True, cwd=cwd or os.path.dirname(HERE))


class TestCanonicalizeCmd:
    def test_fixture_text_output(self, tmp_path):
        out = tmp_path / "g.txt"
        r = run_cli("canonicalize", "share_stress", "--stats", "-o", str(out))
        assert r.returncode == 0
        body = out.read_text()
        assert "is_canonical=True" in body
        assert body.startswith("# symconj-graph v1")

    def test_identity_model_fixed_point(self, tmp_path):
        from symconj import graph as G
        from symconj.canonicalize import canonicalize
        g = G.build(lambda x, y: G.einsum("i,i->", x, y),
                    [("x", (3,)), ("y", (3,))])
        src = tmp_path / "m.txt"
        src.write_text(G.dump(canonicalize(g).graph, "text"))
        r = run_cli("canonicalize", str(src))
        assert r.returncode == 0
        assert G.graph_equal(G.parse(r.stdout), G.parse(src.read_text()))

    def test_malformed_file_exits_2_with_line(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("input x ()\nprim n1 bogus x\noutput n1\n")
        r = run_cli("canonicalize", str(src))
        assert r.returncode == 2
        assert "line 2" in r.stderr

    def test_malformed_node_exits_2_naming_the_op(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("input x (3,)\nprim n1 sum_axis x\noutput n1\n")
        r = run_cli("canonicalize", str(src))
        assert r.returncode == 2
        assert ("parse error at line 2: sum_axis: attribute count 0, "
                "expected 1") in r.stderr

    def test_missing_file_exits_2(self):
        r = run_cli("canonicalize", "not_a_fixture")
        assert r.returncode == 2

    def test_directory_exits_2_with_an_error_line(self, tmp_path):
        r = run_cli("canonicalize", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {str(tmp_path)!r} is neither a "
                                   f"fixture (")
        assert r.stderr.endswith(") nor a readable file: Is a directory\n")
        assert r.stderr.count("\n") == 1

    def test_non_utf8_file_exits_2_naming_it(self, tmp_path):
        src = tmp_path / "m.txt"
        src.write_bytes(b"\xff\xfe# symconj-graph v1\n")
        r = run_cli("canonicalize", str(src))
        assert r.returncode == 2
        assert r.stderr == (f"error: {str(src)!r} is not UTF-8 text: "
                            f"invalid start byte at byte 0\n")

    def test_budget_exhaustion_exits_3(self, tmp_path):
        from symconj import graph as G
        g = G.build(lambda u, v: G.sum_all(G.square(u + v)),
                    [("u", (3,)), ("v", (3,))])
        src = tmp_path / "m.txt"
        src.write_text(G.dump(g, "text"))
        r = run_cli("canonicalize", str(src), "--max-rules", "1")
        assert r.returncode == 3
        assert "recent rules" in r.stderr

    def test_too_many_index_letters_exits_1(self, tmp_path):
        from test_canonicalize import TOO_MANY_LETTERS
        src = tmp_path / "m.txt"
        src.write_text(TOO_MANY_LETTERS)
        r = run_cli("canonicalize", str(src))
        assert r.returncode == 1
        assert "needs 32 index letters" in r.stderr

    def test_dot_output(self):
        r = run_cli("canonicalize", "beta_bernoulli", "--dot")
        assert r.returncode == 0
        assert r.stdout.startswith("digraph")
        assert r.stdout.rstrip().endswith("}")


class TestConditionalCmd:
    def test_beta_bernoulli_default_args(self):
        r = run_cli("conditional", "beta_bernoulli", "--var", "0")
        assert r.returncode == 0
        assert "Beta" in r.stdout
        assert "60.5" in r.stdout and "40.5" in r.stdout

    def test_var_by_name_with_argfile(self, tmp_path):
        argfile = tmp_path / "args.txt"
        argfile.write_text(
            "n_heads\n60\n"
            "n_draws\n100\n"
            "prior_a\n0.5\n"
            "prior_b\n0.5\n")
        r = run_cli("conditional", "beta_bernoulli", "--var", "prob",
                    "--at", str(argfile))
        assert r.returncode == 0
        assert "Beta" in r.stdout

    def test_gmm_tau_is_batched_gamma(self):
        r = run_cli("conditional", "gmm", "--var", "tau")
        assert r.returncode == 0
        assert r.stdout.startswith("Gamma(")

    def test_unknown_variable_exits_2(self):
        r = run_cli("conditional", "beta_bernoulli", "--var", "nope")
        assert r.returncode == 2


    def test_unknown_support_tag_exits_2(self, tmp_path):
        model = tmp_path / "f.txt"
        model.write_text(UNKNOWN_TAG_MODEL)
        r = run_cli("conditional", str(model), "--var", "x")
        assert r.returncode == 2
        assert r.stderr.startswith("error: unknown support 'FOO'")

    def test_non_integer_argfile_shape_exits_2(self, tmp_path):
        argfile = tmp_path / "args.txt"
        argfile.write_text("prob 1.5\n0.3\n")
        r = run_cli("conditional", "beta_bernoulli", "--var", "prob",
                    "--at", str(argfile))
        assert r.returncode == 2
        assert r.stderr == (f"error: argfile {argfile}: bad line "
                            f"'prob 1.5'\n")

    @pytest.mark.parametrize("header", ["n_heads -1", "n_heads 2 -2"])
    def test_negative_argfile_extent_exits_2_naming_the_line(
            self, tmp_path, header):
        argfile = tmp_path / "args.txt"
        argfile.write_text(f"{header}\n60\n")
        r = run_cli("conditional", "beta_bernoulli", "--var", "prob",
                    "--at", str(argfile))
        assert r.returncode == 2
        assert r.stderr == (f"error: argfile {argfile}: negative extent in "
                            f"line {header!r}\n")

    def test_argfile_missing_an_argument_exits_2(self, tmp_path):
        argfile = tmp_path / "args.txt"
        argfile.write_text("n_heads\n60\nn_draws\n100\n")
        r = run_cli("conditional", "beta_bernoulli", "--var", "prob",
                    "--at", str(argfile))
        assert r.returncode == 2
        assert r.stderr == (f"error: argfile {argfile}: no values for "
                            f"['prior_a', 'prior_b']\n")

    def test_argfile_name_given_twice_exits_2(self, tmp_path):
        argfile = tmp_path / "args.txt"
        argfile.write_text("n_heads\n60\nn_draws\n100\nn_heads\n5\n"
                           "prior_a\n0.5\nprior_b\n0.5\n")
        r = run_cli("conditional", "beta_bernoulli", "--var", "prob",
                    "--at", str(argfile))
        assert r.returncode == 2
        assert r.stderr == f"error: argfile {argfile}: n_heads given twice\n"

    def test_non_utf8_argfile_exits_2_naming_it(self, tmp_path):
        argfile = tmp_path / "args.txt"
        argfile.write_bytes(b"\xff\xfen_heads\n60\n")
        r = run_cli("conditional", "beta_bernoulli", "--var", "prob",
                    "--at", str(argfile))
        assert r.returncode == 2
        assert r.stderr == (f"error: argfile {argfile}: not UTF-8 text: "
                            f"invalid start byte at byte 0\n")


class TestInferCmd:
    def test_zero_iters_empty_trace(self, tmp_path):
        trace = tmp_path / "t.tsv"
        r = run_cli("infer", "beta_bernoulli", "--algo", "gibbs",
                    "--iters", "0", "--trace", str(trace))
        assert r.returncode == 0
        assert trace.read_text() == ""

    def test_same_seed_byte_identical_traces(self, tmp_path):
        t1, t2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for t in (t1, t2):
            r = run_cli("infer", "beta_bernoulli", "--algo", "gibbs",
                        "--iters", "20", "--seed", "5", "--trace", str(t))
            assert r.returncode == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_trace_format(self, tmp_path):
        trace = tmp_path / "t.tsv"
        r = run_cli("infer", "beta_bernoulli", "--algo", "cavi",
                    "--iters", "5", "--trace", str(trace))
        assert r.returncode == 0
        for line in trace.read_text().splitlines():
            it, val = line.split("\t")
            int(it)
            float(val)

    def test_cavi_monotone_trace_with_plot(self, tmp_path):
        trace = tmp_path / "fa.tsv"
        plot = tmp_path / "fa.svg"
        r = run_cli("infer", "factor_analysis", "--algo", "cavi",
                    "--iters", "20", "--trace", str(trace),
                    "--plot", str(plot))
        assert r.returncode == 0
        vals = np.array([float(line.split("\t")[1])
                         for line in trace.read_text().splitlines()])
        assert np.all(np.diff(vals) >= -1e-9 * np.maximum(1, np.abs(vals[:-1])))
        svg = plot.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg


    def test_unknown_fixture_exits_2(self):
        r = run_cli("infer", "nosuch", "--algo", "gibbs")
        assert r.returncode == 2
        assert r.stderr.startswith("error: no fixture named 'nosuch'")

class TestCheckCmd:
    def test_conjugate_model_passes(self, tmp_path):
        from symconj import graph as G
        from symconj.models import fixture
        model = tmp_path / "bb.txt"
        model.write_text(G.dump(fixture("beta_bernoulli").graph(), "text"))
        r = run_cli("check", "--model", str(model))
        assert r.returncode == 0
        assert r.stdout == (f"PASS {model}: prob has a Beta complete "
                            f"conditional\n")

    @pytest.mark.parametrize("text, var, family, missing", [
        ("input x () REAL\ninput c ()\nprim n2 multiply x c\n"
         "prim n3 negate n2\noutput n3\n", "x", "Normal", "square"),
        ("input t () NONNEGATIVE\nprim n1 log t\nconst n2 () 2.0\n"
         "prim n3 multiply n2 n1\noutput n3\n", "t", "Gamma", "identity"),
    ], ids=["normal_without_square", "gamma_without_identity"])
    def test_never_proper_conditional_fails(self, tmp_path, text, var,
                                            family, missing):
        model = tmp_path / "m.txt"
        model.write_text("# symconj-graph v1\n" + text)
        r = run_cli("check", "--model", str(model))
        assert r.returncode == 1
        assert r.stdout == (
            f"FAIL {model}: {var} (variable {var!r} matches {family}, but "
            f"the model holds no {missing} statistic of it, so its "
            f"conditional is never proper)\n")

    def test_corrupted_fixture_fails_conjugacy_suite(self):
        r = run_cli("check", "--model", CORRUPT)
        assert r.returncode == 1
        assert "FAIL" in r.stdout

    def test_unknown_support_tag_in_model_exits_2(self, tmp_path):
        model = tmp_path / "f.txt"
        model.write_text(UNKNOWN_TAG_MODEL)
        r = run_cli("check", "--model", str(model))
        assert r.returncode == 2
        assert r.stderr.startswith("error: unknown support 'FOO'")

    def test_graph_without_inputs_exits_2_naming_it(self, tmp_path):
        model = tmp_path / "const.txt"
        model.write_text("# symconj-graph v1\nconst n0 () 1.0\noutput n0\n")
        r = run_cli("check", "--model", str(model))
        assert r.returncode == 2
        assert r.stderr == (f"error: {str(model)!r} has no input to "
                            f"condition on\n")

    def test_unreadable_model_exits_2_naming_it(self, tmp_path):
        model = tmp_path / "missing.txt"
        r = run_cli("check", "--model", str(model))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {str(model)!r} is neither a "
                                   f"fixture (")

    def test_bad_suite_usage_error(self):
        r = run_cli("check", "--suite", "bogus")
        assert r.returncode == 2

    def test_missing_suite_usage_error(self):
        r = run_cli("check")
        assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ("infer", "beta_bernoulli", "--algo", "gibbs", "--seed", "-3"),
    ("infer", "beta_bernoulli", "--algo", "gibbs", "--iters", "-1"),
    ("canonicalize", "beta_bernoulli", "--max-rules", "-5"),
])
def test_negative_count_exits_2(argv):
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stderr.rstrip().endswith(f"argument {argv[-2]}: "
                                      f"{argv[-1]!r} is not an integer >= 0")
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ("canonicalize", "beta_bernoulli", "-o"),
    ("infer", "beta_bernoulli", "--algo", "gibbs", "--iters", "2", "--trace"),
    ("infer", "beta_bernoulli", "--algo", "gibbs", "--iters", "2", "--plot"),
])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, argv):
    path = str(tmp_path / "no_such_dir" / "out")
    r = run_cli(*argv, path)
    assert r.returncode == 2
    assert r.stderr == (f"error: cannot write {path!r}: "
                        f"No such file or directory\n")


def readme_commands():
    """The ``symconj ...`` lines of the README "Command line" block, with
    continuation lines joined and comments dropped."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.startswith("symconj ")]


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert {argv[1] for argv in commands} == {
        "canonicalize", "conditional", "infer", "check"}
    parser = cli.build_parser()
    for argv in commands:
        assert argv[0] == "symconj"
        parser.parse_args(argv[1:])
