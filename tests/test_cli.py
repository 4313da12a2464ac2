import argparse
import io
import os
import re
import shlex

import pytest

from rainbowtrees import cli, harness, read_records
from rainbowtrees.cli import main
from rainbowtrees.io import parse_edge_list, read_text

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_gen_gnp_deterministic(tmp_path):
    out1 = str(tmp_path / "g1.txt")
    out2 = str(tmp_path / "g2.txt")
    assert main(["gen", "--n", "30", "--p", "0.2", "--seed", "3",
                 "--out", out1]) == 0
    assert main(["gen", "--n", "30", "--p", "0.2", "--seed", "3",
                 "--out", out2]) == 0
    assert read_text(out1) == read_text(out2)
    graph = parse_edge_list(read_text(out1))
    assert graph.n == 30
    assert graph.colouring is None


def test_gen_seed_kind_with_perturbation(tmp_path):
    plain = str(tmp_path / "seed.txt")
    shaken = str(tmp_path / "union.txt")
    base = ["gen", "--n", "40", "--kind", "clique-union", "--delta", "0.4",
            "--seed", "5"]
    assert main(base + ["--out", plain]) == 0
    assert main(base + ["--p", "0.1", "--out", shaken]) == 0
    g_plain = parse_edge_list(read_text(plain))
    g_union = parse_edge_list(read_text(shaken))
    assert g_union.size > g_plain.size
    assert g_plain.edges <= g_union.edges


def test_colour_pipeline(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    tinted = str(tmp_path / "tinted.txt")
    assert main(["gen", "--n", "25", "--p", "0.3", "--seed", "1",
                 "--out", host]) == 0
    assert main(["colour", "--in", host, "--palette", "12", "--seed", "2",
                 "--out", tinted]) == 0
    coloured = parse_edge_list(read_text(tinted))
    assert coloured.palette_size == 12
    assert coloured.is_coloured
    assert coloured.edges == parse_edge_list(read_text(host)).edges
    # stdout path: no --out prints the edge list
    assert main(["colour", "--in", host, "--palette", "5", "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "25 5"


def test_colour_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 0\n0 1\n1 2\n"))
    assert main(["colour", "--in", "-", "--palette", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3 4"


def test_dash_out_writes_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gen = ["gen", "--n", "5", "--seed", "1"]
    assert main(gen + ["--out", "-"]) == 0
    text = capsys.readouterr().out
    assert main(gen + ["--out", "g.txt"]) == 0
    assert text and read_text("g.txt") == text
    colour = ["colour", "--in", "g.txt", "--palette", "3", "--seed", "2"]
    assert main(colour + ["--out", "-"]) == 0
    tinted = capsys.readouterr().out
    assert main(colour + ["--out", "c.txt"]) == 0
    assert tinted and read_text("c.txt") == tinted
    assert not (tmp_path / "-").exists()


class _Built(Exception):
    """Raised in place of running the trials of a built config."""


def _readme_commands():
    """Every `rainbowtrees ...` command in the README's sh blocks, as argv
    lists without the program name."""
    text = open(README, encoding="utf-8").read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "rainbowtrees":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse_and_validate(monkeypatch):
    def build_only(config, **_):
        config.validate()
        harness._preflight(config)
        raise _Built(config)

    monkeypatch.setattr(cli, "run_trials", build_only)
    monkeypatch.setattr(harness, "run_trials", build_only)
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(subcommands)
    built = 0
    for argv in commands:
        args = parser.parse_args(argv)
        if args.func in (cli._cmd_gen, cli._cmd_colour):
            continue
        with pytest.raises(_Built) as run:
            args.func(args)
        assert isinstance(run.value.args[0], harness.TrialConfig)
        built += 1
    assert built == len(commands) - 3      # two gen lines, one colour line
    count = re.search(r"`rainbowtrees --help` lists (\w+) subcommands",
                      open(README, encoding="utf-8").read()).group(1)
    words = ("one two three four five six seven eight nine ten").split()
    assert words.index(count) + 1 == len(subcommands)


def test_rainbow_st_subcommand_writes_csv(tmp_path, capsys):
    path = str(tmp_path / "runs.csv")
    assert main(["rainbow-st", "--n", "24", "--trials", "4", "--seed", "9",
                 "--out", path]) == 0
    out = capsys.readouterr().out
    assert "successes=" in out and "wilson95=" in out
    rows = read_records(path)
    assert len(rows) == 4
    assert all(row["seed"] == 9 for row in rows)


def test_montecarlo_matches_sugar_command(tmp_path):
    sugar = str(tmp_path / "sugar.csv")
    generic = str(tmp_path / "generic.csv")
    common = ["--n", "22", "--trials", "3", "--seed", "4"]
    assert main(["rainbow-st"] + common + ["--out", sugar]) == 0
    assert main(["montecarlo", "--kind", "rainbow-st"] + common
                + ["--out", generic]) == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "ms"}
                          for r in rows]
    assert strip(read_records(sugar)) == strip(read_records(generic))


def test_lemma_stats_subcommand(tmp_path, capsys):
    path = str(tmp_path / "lemma.csv")
    assert main(["lemma-stats", "--kind", "many-colours-a", "--n", "300",
                 "--trials", "3", "--seed", "2", "--out", path]) == 0
    out = capsys.readouterr().out
    assert "kind=many-colours-a" in out
    assert "frequency=" in out and "bound=" in out
    assert len(read_records(path)) == 3


def test_cli_reports_parameter_errors(tmp_path, capsys):
    # the spanning pipeline owns its palette; asking for one is an error
    code = main(["embed-spanning", "--n", "30", "--palette", "10",
                 "--trials", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # malformed knob JSON
    code = main(["rainbow-st", "--n", "20", "--trials", "1",
                 "--knobs", "{not json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_embed_almost_subcommand_smoke(capsys):
    code = main(["embed-almost", "--n", "500", "--trials", "2", "--seed", "2",
                 "--eps", "0.25", "--tree-frac", "0.08",
                 "--knobs", '{"beta": 0.12, "m_mode": "balanced", '
                            '"expander_c_mode": "density"}'])
    assert code == 0
    out = capsys.readouterr().out
    assert "successes=2 trials=2" in out
