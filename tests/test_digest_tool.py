"""``tools/digest.py --compare --expect``: the CI gate on bitwise digests.

Any (config, field) that differs between the parent's and the change's
digest fails the comparison unless the expect file lists it, and a listed
pair that no longer differs fails it too, so the list cannot go stale.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
spec = importlib.util.spec_from_file_location("digest_tool", TOOL)
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)


def write(path: Path, configs: dict) -> str:
    path.write_text(json.dumps({"digest": configs}))
    return str(path)


def test_compare_fails_only_on_differences_the_expect_file_does_not_list(tmp_path, capsys):
    base = write(tmp_path / "a.json", {"run": {"losses": "1", "params": "2"}, "old": {"x": "0"}})
    same = write(tmp_path / "b.json", {"run": {"losses": "1", "params": "2"}, "old": {"x": "0"}})
    moved = write(tmp_path / "c.json", {"run": {"losses": "1", "params": "3"}, "new": {"x": "0"}})
    expect = tmp_path / "expect.txt"
    expect.write_text("# moved on purpose\nrun params  # a comment\nold\n\nnew\n")
    expected = frozenset(digest.read_expected(str(expect)))
    assert expected == {("run", "params"), ("old", ""), ("new", "")}

    assert digest.compare(base, same) == 0
    assert capsys.readouterr().out.strip().endswith("equal")
    assert digest.compare(base, moved) == 3
    assert digest.compare(base, moved, expected) == 0
    assert "run params: differs (expected)" in capsys.readouterr().out
    # A listed pair that no longer moves is stale: it fails the gate.
    assert digest.compare(base, same, expected) == 3
    assert "expected to differ, but equal" in capsys.readouterr().out
    assert digest.main(["--compare", base, moved, "--expect", str(expect)]) == 0
    assert digest.main(["--compare", base, moved]) == 1
