"""Fixed-config trial CSVs, hashed with the timing column stripped.

ROADMAP's "same results" means that a fixed config writes a trial CSV
that is byte-identical apart from `ms`.  Each case below runs one
subcommand in-process through `cli.main` and compares the SHA-256 of its
CSV text, `ms` removed from every row, with the hash stored when the
case was added.  A change that alters any random stream, outcome, stage
or metric of these runs changes a hash.
"""

from __future__ import annotations

import csv
import hashlib
import io

import pytest

from rainbowtrees.cli import _build_parser, main
from rainbowtrees.harness import KINDS

CASES = {
    "rainbow-st": (
        ["rainbow-st", "--n", "300", "--p", "0.00019245", "--palette", "299",
         "--delta", "0.4", "--seed-kind", "clique-union", "--trials", "20",
         "--seed", "8800"],
        "24c477e443f2828f1a9360ce6ffd5fa52f458e209a886c8d3c33318f7d5e8646"),
    "embed-almost": (
        ["embed-almost", "--n", "2000", "--eps", "0.25", "--d", "3",
         "--tree-frac", "0.08", "--knobs",
         '{"beta":0.12,"m_mode":"balanced","expander_c_mode":"density"}',
         "--trials", "20", "--seed", "10610"],
        "d0b9bf45582f53a3aea11b64328fce52b83db88c9d5d9b02c12c535583d93f6b"),
    "embed-spanning": (
        ["embed-spanning", "--n", "300", "--eps", "0.05", "--delta", "0.4",
         "--alpha", "0.25", "--d", "3", "--seed-kind", "clique-union",
         "--trials", "20", "--seed", "9000"],
        "7a0df19b10041a1a6fb2109075c212dc8e6a4fc80d87576a9e9d875e5d61da9d"),
    "large-Buv": (
        ["lemma-stats", "--kind", "large-Buv", "--n", "600", "--trials", "5",
         "--seed", "8950"],
        "25f020d7301dd8c5751214ea36c5d807a100de933df9f8739f1dbf3cee8c6c76"),
    "many-colours-a": (
        ["lemma-stats", "--kind", "many-colours-a", "--n", "2000",
         "--trials", "5", "--seed", "8960"],
        "d308dd2a85afa86885ed30925f2e4408f1e2f36d4136dfd48c3916ac63287473"),
    "many-colours-b": (
        ["lemma-stats", "--kind", "many-colours-b", "--n", "2000",
         "--trials", "5", "--seed", "8970"],
        "8538362e6fbcbc1599c3bcf2a7b125579ac98dfbcf8d4f24899c76563b6745cc"),
    "expand-membership": (
        ["lemma-stats", "--kind", "expand-membership", "--n", "400",
         "--knobs", '{"C":40.0,"theta":0.3,"check_trials":40}',
         "--trials", "5", "--seed", "8980"],
        "553c90d5299d57bbaee63811bba2e491ae52827e8c718c7c9419b2797a506b51"),
}


def test_every_trial_kind_has_a_case():
    # a trial kind added to the harness's table needs a pinned CSV here
    parser = _build_parser()
    assert {parser.parse_args(argv).kind for argv, _ in CASES.values()} \
        == set(KINDS)


def _csv_without_ms(path) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "ms"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:-1] for row in rows)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_config_csv_is_unchanged(name, tmp_path, capsys):
    argv, digest = CASES[name]
    out = tmp_path / "records.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    text = _csv_without_ms(out)
    assert len(text.splitlines()) > 1
    assert hashlib.sha256(text.encode()).hexdigest() == digest
