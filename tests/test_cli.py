import argparse
import dataclasses
import io
import json
import os
import re
import shlex

import pytest

from rainbowtrees import ParameterError, cli, harness, read_records
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


def test_readme_python_snippets_run():
    # each python block runs on its own, as a reader would paste it
    text = open(README, encoding="utf-8").read()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {"__name__": "__readme__"})


def test_rainbow_st_subcommand_writes_csv(tmp_path, capsys):
    path = str(tmp_path / "runs.csv")
    assert main(["rainbow-st", "--n", "24", "--trials", "4", "--seed", "9",
                 "--out", path]) == 0
    out = capsys.readouterr().out
    assert "successes=" in out and "wilson95=" in out
    rows = read_records(path)
    assert len(rows) == 4
    assert all(row["seed"] == 9 for row in rows)


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


def test_cli_reports_missing_files(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["colour", "--in", missing]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # an --out in a missing directory stops the command before trial 0
    out = str(tmp_path / "no-such-dir" / "x.csv")
    for argv in (["rainbow-st", "--n", "20", "--trials", "2"],
                 ["lemma-stats", "--kind", "many-colours-a", "--n", "50",
                  "--trials", "2"]):
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr()
        assert err.out == "" and "does not exist" in err.err


@pytest.mark.parametrize("bad", [{"beta": "x"}, {"zeta": "x"}, {"rho": "x"},
                                 {"c_m": "x"}, {"c_m": 0}, {"c_m": -1}],
                         ids=["beta-x", "zeta-x", "rho-x", "c_m-x", "c_m-0",
                              "c_m-neg"])
def test_cli_rejects_knob_values_of_the_wrong_type(bad, capsys):
    # over a config whose trials run, each bad value stops the command
    knobs = {"beta": 0.12, "m_mode": "balanced", **bad}
    code = main(["embed-almost", "--n", "2000", "--tree-frac", "0.08",
                 "--trials", "1", "--knobs", json.dumps(knobs)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_spanning_knob_keeps_the_other_defaults(tmp_path):
    # a knob set to its default value changes nothing: the pipeline's
    # other defaults stay in force, key by key
    base = ["embed-spanning", "--n", "300", "--eps", "0.05", "--alpha",
            "0.25", "--trials", "3", "--seed", "9000", "--out"]
    plain, knobbed = str(tmp_path / "plain.csv"), str(tmp_path / "knob.csv")
    assert main(base + [plain]) == 0
    assert main(base + [knobbed, "--knobs", '{"c_m": 3.0}']) == 0

    def untimed(path):
        return [{k: v for k, v in row.items() if k != "ms"}
                for row in read_records(path)]

    assert untimed(knobbed) == untimed(plain)
    assert len(untimed(plain)) == 3


def test_embed_almost_subcommand_smoke(capsys):
    code = main(["embed-almost", "--n", "500", "--trials", "2", "--seed", "2",
                 "--eps", "0.25", "--tree-frac", "0.08",
                 "--knobs", '{"beta": 0.12, "m_mode": "balanced", '
                            '"expander_c_mode": "density"}'])
    assert code == 0
    out = capsys.readouterr().out
    assert "successes=2 trials=2" in out


def _subcommands():
    parser = cli._build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_trial_subcommands_are_the_rows_with_a_command():
    trial = {name: sp.get_default("kind")
             for name, sp in _subcommands().items()
             if sp.get_default("func") is cli._cmd_trials}
    assert trial == {entry.command: key
                     for key, entry in harness.KINDS.items()
                     if entry.command is not None}


def test_every_config_field_has_a_flag_and_a_reader():
    fields = {f.name for f in dataclasses.fields(harness.TrialConfig)}
    # kind comes from the subcommand, lemma_kind from lemma-stats' --kind
    assert set(cli.FIELD_FLAGS) == fields - {"kind", "lemma_kind"}
    always = fields - {name for name, _ in harness._UNREAD_DEFAULTS}
    read = set().union(*(entry.reads for entry in harness.KINDS.values()))
    assert read | always == fields
    for sp in _subcommands().values():
        if sp.get_default("func") in (cli._cmd_trials, cli._cmd_lemma_stats):
            flags = {o for a in sp._actions for o in a.option_strings}
            assert {flag for flag, _ in cli.FIELD_FLAGS.values()} <= flags


# a valid value other than the default for each field some kind ignores
UNREAD_SAMPLES = {"palette_size": 7, "eps": 0.3, "delta": 0.5, "alpha": 0.2,
                  "d": 2, "tree_source": "path", "seed_kind": "complete",
                  "tree_frac": 0.05, "gamma": 0.3, "beta": 0.5, "samples": 5,
                  "knobs": {}}


@pytest.mark.parametrize("key", sorted(harness.KINDS))
def test_every_path_rejects_the_fields_a_kind_does_not_read(key, capsys):
    entry = harness.KINDS[key]
    assert set(UNREAD_SAMPLES) == {name for name, _
                                   in harness._UNREAD_DEFAULTS}
    if entry.lemma_defaults is None:
        base = {"kind": key, "n": 300}
        argv = [entry.command, "--n", "300"]
    else:
        base = {"kind": "lemma-stats", "lemma_kind": key,
                **entry.lemma_defaults}
        argv = ["lemma-stats", "--kind", key]
    unread = [name for name in UNREAD_SAMPLES if name not in entry.reads]
    assert unread
    for name in unread:
        value = UNREAD_SAMPLES[name]
        why = "%s runs do not read %s;" % (key, name)
        with pytest.raises(ParameterError, match=why):
            harness.TrialConfig(**base, **{name: value}).validate()
        if entry.lemma_defaults is not None:
            with pytest.raises(ParameterError, match=why):
                harness.lemma_stats(key, {name: value}, trials=1)
        flag = cli.FIELD_FLAGS[name][0]
        text = json.dumps(value) if isinstance(value, dict) else str(value)
        assert main(argv + ["--trials", "1", flag, text]) == 2
        err = capsys.readouterr()
        assert err.out == "" and "error: " + why in err.err


@pytest.mark.parametrize("argv", [
    ["rainbow-st", "--n", "40", "--trials", "2", "--tree-source", "star",
     "--seed-kind", "complete", "--eps", "0.9", "--alpha", "3", "--d", "7"],
    ["rainbow-st", "--n", "40", "--trials", "2", "--eps", "0.9"],
    ["embed-almost", "--n", "500", "--tree-frac", "0.08", "--trials", "2",
     "--knobs", '{"beta":0.12,"m_mode":"balanced"}',
     "--delta", "0.9", "--alpha", "5", "--seed-kind", "multipartite"],
    ["lemma-stats", "--kind", "expand-membership", "--n", "400", "--trials",
     "2", "--knobs", '{"C":40.0,"theta":0.3,"check_trials":"x"}'],
    ["lemma-stats", "--kind", "expand-membership", "--n", "400", "--trials",
     "2", "--knobs", '{"C":40.0,"theta":"x"}'],
    ["rainbow-st", "--n", "40", "--trials", "2", "--workers", "0"],
    ["rainbow-st", "--n", "40", "--trials", "2", "--workers", "-4"]],
    ids=["rst-ignored-flags", "rst-eps", "almost-ignored-flags",
         "expand-check-trials-x", "expand-theta-x", "workers-0",
         "workers-neg"])
def test_cli_rejects_what_a_run_would_ignore_or_misread(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_readme_flag_table_matches_the_rows():
    text = open(README, encoding="utf-8").read()
    flags = {flag: name for name, (flag, _) in cli.FIELD_FLAGS.items()}
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (`--.*) \|$", text,
                      flags=re.M)
    assert {kind for _, kind, _ in rows} == set(harness.KINDS)
    for command, kind, listed in rows:
        entry = harness.KINDS[kind]
        assert command == (entry.command or "lemma-stats --kind " + kind)
        assert {flags[flag] for flag in re.findall(r"`(--[\w-]+)`", listed)} \
            == entry.reads
