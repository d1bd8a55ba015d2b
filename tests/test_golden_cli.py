"""Byte-identity corpus for the command line, replayed in process.

tests/golden/cli.json holds one record per call: argv, exit code, stdout
and stderr.  It covers every subcommand in text and --json, the 21
classification rows, the documented exit-1 and exit-2 paths and --help.
An output longer than 1024 characters is stored as its SHA-256 digest and
length.  The file is written once and edited only with a stated reason;
verify-all is pinned by VERIFY_ALL_TEXT in test_cli.py instead.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from extmcg import cli

RECORDS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _matches(text, want):
    if isinstance(want, str):
        return text == want
    return (len(text), hashlib.sha256(text.encode()).hexdigest()) == \
        (want["length"], want["sha256"])


def test_cli_output_is_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    wrong = []
    for record in RECORDS:
        code, out, err = _replay(record["argv"])
        if not (code == record["code"] and _matches(out, record["stdout"])
                and _matches(err, record["stderr"])):
            wrong.append((record["argv"], code, out[:200], err[:200]))
    assert not wrong, f"{len(wrong)} of {len(RECORDS)} records differ: {wrong}"


def test_corpus_covers_every_subcommand_but_verify_all():
    seen = {r["argv"][0] for r in RECORDS if r["code"] == 0 and r["argv"]}
    assert seen >= set(cli._SUBCOMMANDS) - {"verify-all"}
    assert not any(r["argv"] in (["verify-all"], ["verify-all", "--json"]) for r in RECORDS)
    classify_json = [r for r in RECORDS if r["argv"][:1] == ["classify"]
                     and r["argv"][-1] == "--json" and r["code"] == 0]
    assert len(classify_json) == 22  # the 21 acceptance rows and p = 22
