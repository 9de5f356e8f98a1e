"""tools/gen_experiments.py: the splice it writes EXPERIMENTS.md with,
and the committed files it keeps (every block has one marker pair, every
extension block's numbers sit in docs/paper_tables.json, and the
extension section's prose quotes no measured figure of its own)."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.core.report import ARTIFACTS, EXTENSIONS

ROOT = Path(__file__).parent.parent
BLOCK_IDS = [block_id for block_id, *_ in ARTIFACTS + EXTENSIONS]
EXTENSION_IDS = [block_id for block_id, *_ in EXTENSIONS]


@pytest.fixture(scope="module")
def gen():
    path = ROOT / "tools" / "gen_experiments.py"
    spec = importlib.util.spec_from_file_location("gen_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def experiments() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def tables() -> dict:
    return json.loads((ROOT / "docs" / "paper_tables.json").read_text())


DOC = "intro\n<!-- BEGIN generated: a -->\nold\n<!-- END generated: a -->\noutro\n"


class TestSplice:
    def test_replaces_only_between_the_markers(self, gen):
        out = gen.splice(DOC, "a", "new")
        assert out == ("intro\n<!-- BEGIN generated: a -->\n```text\nnew\n```\n"
                       "<!-- END generated: a -->\noutro\n")

    def test_is_idempotent(self, gen):
        once = gen.splice(DOC, "a", "new")
        assert gen.splice(once, "a", "new") == once

    @pytest.mark.parametrize("doc", [
        "intro\n",
        DOC + DOC,
        "<!-- BEGIN generated: a -->\n",
    ], ids=["missing", "doubled", "unclosed"])
    def test_rejects_anything_but_one_marker_pair(self, gen, doc):
        with pytest.raises(SystemExit, match="exactly one"):
            gen.splice(doc, "a", "new")


@pytest.mark.parametrize("block_id", BLOCK_IDS)
def test_experiments_has_one_marker_pair(experiments, block_id):
    assert experiments.count(f"<!-- BEGIN generated: {block_id} -->") == 1
    assert experiments.count(f"<!-- END generated: {block_id} -->") == 1


@pytest.mark.parametrize("block_id", EXTENSION_IDS)
def test_extension_numbers_are_committed(tables, block_id):
    numbers = tables["extensions"][block_id]
    assert isinstance(numbers, dict) and numbers


def test_extension_prose_quotes_no_measured_figure(experiments):
    """Every number the extension studies measure lives in a generated
    block; the prose around them names studies, not results."""
    section = experiments.split("## Extension studies")[1].split("\n## ")[0]
    prose = re.sub(r"<!-- BEGIN generated: (\S+) -->.*?<!-- END generated: \1 -->",
                   "", section, flags=re.S)
    figures = re.findall(r"\b\d[\d,.]*\s?(?:s|Wh|W|%|×|x|MB|GB)(?!\w)", prose)
    assert figures == []
    for block_id in EXTENSION_IDS:
        assert f"<!-- BEGIN generated: {block_id} -->" in section
