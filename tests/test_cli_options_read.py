"""Every option a subcommand accepts is read on its code path.

Each subcommand runs once on a small input, with its options parsed into a
namespace that records which attributes the command reads.  An option
whose dest goes unread is a flag that changes nothing, such as an --out
that no output honours.
"""

from __future__ import annotations

import argparse
import json

from cmreg.cli import build_parser

PROBLEM = """\
ring d=2 char=32003
quotient: x1*x2
module M: targets [0]; relations [[x1]]
module N: targets [1]; relations [[x2]]
ideal I: x1
"""

TRIGRADED = {
    "spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]},
    "data": {"0": [[0, 0, 5]]},
}

GRID = ["--module", "M", "--coeff", "N", "--ideal", "I", "--imax", "0", "--nmax", "0"]

#: subcommand -> arguments after the input file; each must run to exit 0
#: and take every branch that reads an option
ARGV = {
    "resolve": ["--module", "M"],
    "reg": ["--module", "M"],
    "ext": ["--module", "M", "--coeff", "N", "--index", "1"],
    "tor": ["--module", "M", "--coeff", "N", "--index", "1"],
    "rho": ["--module", "N", "--ideal", "I"],
    "sweep": GRID,
    "verify": GRID,
    "trigraded-bound": ["--imax", "0", "--nmax", "0"],
}


class _Recording(argparse.Namespace):
    """A namespace that notes each attribute read once `reads` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name != "reads":
            reads.add(name)
        return object.__getattribute__(self, name)


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_option_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.prob").write_text(PROBLEM)
    (tmp_path / "t.json").write_text(json.dumps(TRIGRADED))
    parser = build_parser()
    commands = _subparsers(parser)
    assert set(commands) == set(ARGV)
    unread = []
    for name, sub in commands.items():
        source = "t.json" if name == "trigraded-bound" else "p.prob"
        args = parser.parse_args([name, source, *ARGV[name]], _Recording())
        args.reads = set()
        assert args.fn(args) == 0, name
        dests = {
            a.dest for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        unread += [f"{name} {dest}" for dest in sorted(dests - args.reads)]
    capsys.readouterr()
    assert not unread, unread
