"""README's wire facts, read from the code they describe."""

import re
from pathlib import Path

from dfsqkd.session import WIRE_VERSION
from dfsqkd.transport import MESSAGE_TYPES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_gives_the_wire_version():
    assert re.findall(r"currently (\d+)", README) == [str(WIRE_VERSION)]


def test_readme_lists_the_message_types_in_order():
    # "Message types: HELLO (...), DETECTIONS (...), ..., BYE." with the
    # parenthesised field notes left out
    listed = README.split("Message types:", 1)[1]
    listed = re.sub(r"\([^)]*\)", "", listed).split(".", 1)[0]
    assert tuple(name.strip() for name in listed.split(",")) == MESSAGE_TYPES
