"""The table of tests/cli_cases.py: every shipped config, every edit and every subcommand."""

from __future__ import annotations

import json

import pytest

from cli_cases import CASES, ROOT, config
from toroboris import cli

SCHEMAS = {"simulate": cli._RUN, "drift": cli._RUN, "compare": cli._RUN,
           "converge": cli._CONVERGE, "theorem1": cli._THEOREM1, "check-field": cli._CHECK_FIELD}


def test_every_shipped_config_is_a_case_as_it_is():
    shipped = {path.stem for path in (ROOT / "configs").glob("*.json")}
    assert shipped and shipped <= {case.base for case in CASES if not case.edits}


def test_every_subcommand_is_the_clis():
    assert {command for case in CASES for command in case.commands} <= set(cli._COMMANDS)


def test_names_are_distinct_and_like_names_an_earlier_case_with_its_commands():
    names = [case.name for case in CASES]
    assert len(set(names)) == len(names)
    for i, case in enumerate(CASES):
        if case.like:
            like = CASES[names.index(case.like)]
            assert names.index(case.like) < i and set(case.commands) <= set(like.commands)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_every_case_decodes_through_its_subcommands_schema(case):
    # an edit with a typo fails here, not in the end-to-end run
    text = json.dumps(config(case))
    for command in case.commands:
        cli._decode(text, SCHEMAS[command])
