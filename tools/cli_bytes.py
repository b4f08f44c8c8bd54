"""CLI outputs of a parent revision and of the working tree, byte for byte.

From the repository root:

    python3 tools/cli_bytes.py --parent REV

Exports REV with ``git archive`` and the working tree (its tracked and its
untracked, not ignored, files) into a temporary directory, as
tools/pairs.py does, and runs each command of COMMANDS as
``python3 -m exactwkb.cli ...`` in both, with PYTHONPATH at the export's
``src`` and TP_PRECISION unset.  Compares stdout, stderr and the exit status
of each, prints every command whose outputs differ and exits 1 if any does,
0 if none does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import export     # tools/pairs.py: this directory is on sys.path

F = '[["0",["1/3","0"]],["1",["-2/7","0"]]]'
H = '[["0",["1/5","0"]]]'
V = '[["1",["1","0"]],["2",["1/2","0"]]]'
CONTOUR = "[[1.5, -2.598], [0, 0], [1.5, 2.598]]"   # valley -pi/3, through 0, to +pi/3
PATH = "{contour}"      # replaced by the path of a file holding CONTOUR

COMMANDS = {
    "airy": ["airy", "--z", "1", "0.3", "--eps", "0.1", "0"],
    "borel": ["borel", "--z", "0.8", "0.4", "--eps", "0.1", "0"],
    "jump": ["jump", "--z", "-0.5", "0.866", "--eps", "0.1", "0"],
    "confluent": ["confluent", "--F", F, "--h", H, "--z", "0.9", "0.3", "--eps", "0.08", "0"],
    "confluent x_cap cut": ["confluent", "--F", F, "--h", H, "--z", "-0.5", "0",
                            "--eps", "0.3", "0"],
    "confluent Stokes line": ["confluent", "--F", "[]", "--h", "[]", "--z", "-0.25",
                              "0.4330127018922193", "--eps", "0.05", "0"],
    "confluent --contour": ["confluent", "--F", "[]", "--h", "[]", "--z", "1", "0",
                            "--eps", "0.1", "0", "--contour", PATH],
    "hardy --eval": ["hardy", "--n", "5", "--eval", "0.9", "0.1"],
    "hardy --eval eps": ["hardy", "--n", "3", "--eval", "0.5", "0.05", "--convention", "eps"],
    "hardy S/T": ["hardy", "--n", "5"],
    "stokes": ["stokes", "--V", V, "--extent", "1.0"],
    "stokes alpha": ["stokes", "--V", '[["1",["1","0"]],["3",["-1/5","0"]]]',
                     "--alpha", "0.4", "--extent", "1.5"],
    "pde": ["pde", "--F", F, "--h", H, "--orders", "12,12"],
    "pde float": ["pde", "--F", '[["0",[0.3,0.1]],["1",[-0.2,0]]]', "--h", '[["0",[0.2,0]]]',
                  "--orders", "8,8"],
    "transport exact": ["transport", "--F", F, "--orders", "6"],
    "transport gaussian": ["transport", "--F", '[["0",["1/3","1/2"]],["1",["-2/7","0"]]]',
                           "--orders", "5"],
    "transport float": ["transport", "--F", '[["0",[0.3,0.1]],["1",[-0.2,0]]]',
                        "--orders", "3"],
    "reduce": ["reduce", "--V", V, "--orders", "6"],
    "reduce gaussian": ["reduce", "--V", '[["1",["1","0"]],["2",["1/2","1/3"]]]',
                        "--orders", "4"],
    "reduce float": ["reduce", "--V", '[["1",[1,0]],["2",[0.5,0.1]]]', "--orders", "4"],
    "verify --suite all": ["verify", "--suite", "all"],
}


def outputs(tree: Path, contour: Path) -> dict:
    """name -> (stdout, stderr, exit status) of each command run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "TP_PRECISION"}
    env["PYTHONPATH"] = str(tree / "src")
    out = {}
    for name, argv in COMMANDS.items():
        argv = [str(contour) if a == PATH else a for a in argv]
        p = subprocess.run([sys.executable, "-m", "exactwkb.cli", *argv], cwd=tree, env=env,
                           capture_output=True)
        out[name] = (p.stdout, p.stderr, p.returncode)
    return out


def differing(parent: dict, change: dict) -> list[str]:
    """The commands whose stdout, stderr or exit status differ, in the
    parent's order, each as "name: the streams that differ"."""
    streams = ("stdout", "stderr", "exit status")
    return [f"{name}: " + ", ".join(s for s, a, b in zip(streams, out, change[name]) if a != b)
            for name, out in parent.items() if out != change[name]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        contour = Path(tmp, "contour.json")
        contour.write_text(CONTOUR)
        got = {}
        for side, rev in (("parent", args.parent), ("change", None)):
            Path(tmp, side).mkdir()
            export(rev, Path(tmp, side))
            got[side] = outputs(Path(tmp, side), contour)
    diff = differing(got["parent"], got["change"])
    for line in diff:
        print(f"differs: {line}")
    print(f"{len(COMMANDS)} commands, {len(diff)} differ from {args.parent}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
