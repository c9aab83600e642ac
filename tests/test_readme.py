import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[`(?:\w+\.)?(\w+)`\]\((src/semwalk/\w+\.py)#L(\d+)\)")


def test_library_table_links_point_at_their_functions():
    links = LINK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(links) > 40
    for name, path, line in links:
        source = (ROOT / path).read_text(encoding="utf-8").splitlines()
        assert source[int(line) - 1].startswith(f"def {name}("), (name, path, line)
