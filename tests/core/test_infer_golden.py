"""`repro infer <ref> --json` at CLI defaults, byte for byte.

``data/infer/<ref>.json`` pins the inference report (candidates, demoted
names and witnesses, inferred triples) and, for the hand-annotated apps,
the agreement with the declared level table.  The CI infer job ``cmp``s
the same files.  Regenerate one with
``PYTHONPATH=src python -m repro infer <ref> --json > tests/core/data/infer/<file>.json``
only when inference is meant to change.
"""

import pathlib

import pytest

from repro.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "infer"
REFS = ("banking", "customers", "employees", "orders", "appgen:1", "appgen:3")


@pytest.mark.parametrize("ref", REFS)
def test_infer_json_matches_the_golden(ref, capsys):
    assert main(["infer", ref, "--json"]) == 0
    golden = (DATA / f"{ref.replace(':', '-')}.json").read_text()
    assert capsys.readouterr().out == golden
