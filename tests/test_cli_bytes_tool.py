"""tools/cli_bytes.py: the byte comparison of CLI outputs, on canned runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_bytes  # noqa: E402

PARENT = {"airy": (b'{"value": 1}\n', b"", 0),
          "jump": (b"", b"numeric failure: pole at 2\n", 3),
          "pde": (b"[1]\n", b"", 0),
          "verify": (b"ok\n", b"[PASS] x\n", 0)}


def test_each_command_is_named_with_the_streams_that_differ():
    change = dict(PARENT, jump=(b"", b"numeric failure: pole at 3\n", 3),
                  pde=(b"[1] \n", b"", 2))
    assert cli_bytes.differing(PARENT, change) == ["jump: stderr", "pde: stdout, exit status"]
    assert cli_bytes.differing(PARENT, dict(PARENT)) == []


def test_any_difference_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli_bytes, "export", lambda rev, dest: None)
    for change, code in ((dict(PARENT), 0), (dict(PARENT, airy=(b'{"value": 2}\n', b"", 0)), 1)):
        runs = iter([PARENT, change])
        monkeypatch.setattr(cli_bytes, "outputs", lambda tree, contour: next(runs))
        assert cli_bytes.main(["--parent", "HEAD"]) == code
        out = capsys.readouterr().out.splitlines()
        assert out[:-1] == (["differs: airy: stdout"] if code else [])
        assert out[-1] == f"{len(cli_bytes.COMMANDS)} commands, {code} differ from HEAD"
