"""Run one fixed set of fslm commands on two source trees and compare
every file they write.

    python scripts/same_outputs.py --against <rev> [--rtol X]

The two trees are the working tree this script sits in and <rev>, which
`git archive` extracts into a temporary directory.  Each tree runs the
same commands through its own `fslm.cli.main`, one interpreter per
command, with OPENBLAS_NUM_THREADS=1:

  simulate   an 11x11 lattice, a 22x22 lattice, two --edges graphs
             (rings of 120 units with chords), one bipartite and one with
             odd cycles, and a 7x7 lattice from a --config file, with one
             of its values overridden
  fit        --method all on the 11x11 and --edges bundles, ML on 22x22
  table1     three rho values x two replicates
  moran      on the 11x11 and 22x22 bundles (the diagonal scorer: W's two
             diagonals, sliced) and on the two --edges bundles (the ring's
             and the chords' diagonals sliced, the links that wrap around
             the ring gathered)

Every output file, and every command's exit code and standard output, is
reported as identical, as close (same text around the numbers, which all
agree within --rtol), as numerically different (the largest absolute and
relative difference is printed), or as different.  The script exits 0
only when every command succeeds on both trees and every output is
identical or close; the default --rtol 0 asks for byte-identical
outputs.  Bits can differ between numpy and BLAS builds, so the
comparison is between two trees on one machine, not against stored
files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHAIN = ["--n-iter", "2000", "--burn-in", "500"]
COMMANDS = [
    ["simulate", "--grid", "11x11", "--seed", "1", "--out", "sim11"],
    ["simulate", "--grid", "22x22", "--rho", "0.7", "--seed", "2", "--out", "sim22"],
    ["simulate", "--edges", "../edges.csv", "--rho", "0.3", "--seed", "3", "--out", "sim-edges"],
    ["simulate", "--edges", "../edges-odd.csv", "--rho", "0.3", "--seed", "7",
     "--out", "sim-odd"],
    ["--config", "../config.json", "simulate", "--seed", "10"],
    ["fit", "--data", "sim11", "--method", "all", *CHAIN, "--out", "fit11"],
    ["fit", "--data", "sim-edges", "--method", "all", *CHAIN, "--seed", "4",
     "--out", "fit-edges"],
    ["fit", "--data", "sim-odd", "--method", "all", *CHAIN, "--seed", "8", "--out", "fit-odd"],
    ["fit", "--data", "sim22", "--method", "ml", "--out", "fit22"],
    ["table1", "--rho-list", "0.3,0.5,0.7", "--replicates", "2",
     "--n-iter", "600", "--burn-in", "200", "--out", "table1"],
    ["moran", "--response", "sim11/response.csv", "--weights", "sim11/weights.csv",
     "--permutations", "999", "--seed", "5"],
    ["moran", "--response", "sim22/response.csv", "--weights", "sim22/weights.csv",
     "--permutations", "999", "--seed", "6"],
    ["moran", "--response", "sim-edges/response.csv", "--weights", "sim-edges/weights.csv",
     "--permutations", "999", "--seed", "11"],
    ["moran", "--response", "sim-odd/response.csv", "--weights", "sim-odd/weights.csv",
     "--permutations", "999", "--seed", "12"],
]

RING_UNITS = 120


def ring_with_chords(chord: int) -> str:
    """Edge list of a ring of RING_UNITS units with chords to the unit
    `chord` places on: not a lattice, and every unit has 4 neighbours."""
    return "i,j\r\n" + "".join(f"{i},{(i + step) % RING_UNITS}\r\n"
                               for i in range(RING_UNITS) for step in (1, chord))


# odd chords keep the ring bipartite; even chords close 7-cycles
EDGE_FILES = {"edges.csv": ring_with_chords(7), "edges-odd.csv": ring_with_chords(6)}
# a number, a string and the required --out; the command line's --seed wins
CONFIG_FILES = {"config.json": json.dumps({"grid": "7x7", "rho": 0.4, "seed": 9,
                                           "out": "sim-config"})}

CLI = "import sys; from fslm.cli import main; sys.exit(main(sys.argv[1:]))"

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)",
                    re.IGNORECASE)


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_commands(tree: Path, out: Path) -> list[str]:
    """Runs COMMANDS with tree's sources in out, saving each command's
    exit code and standard output beside the files it writes; returns
    the commands that exited non-zero, with their error output."""
    failed = []
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    for i, argv in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=out, env=env,
                              capture_output=True, timeout=600)
        log = f"exit {proc.returncode}\n".encode() + proc.stdout
        (out / f"{i}-{argv[0]}.stdout").write_bytes(log)
        if proc.returncode:
            failed.append(f"{' '.join(argv)}: {proc.stderr.decode(errors='replace').strip()}")
    return failed


def compare(a: bytes, b: bytes, rtol: float) -> tuple[str, str]:
    """("identical", ""), ("close", how) or ("DIFFERS", how) for two files."""
    if a == b:
        return "identical", ""
    ta, tb = a.decode(errors="replace"), b.decode(errors="replace")
    if NUMBER.split(ta) != NUMBER.split(tb):
        return "DIFFERS", "different text"
    pairs = [(x, y) for x, y in zip(map(float, NUMBER.findall(ta)),
                                     map(float, NUMBER.findall(tb))) if x != y]
    if not pairs:
        return "DIFFERS", "same numbers, written differently"
    abs_diff = max(abs(x - y) for x, y in pairs)
    rel_diff = max(abs(x - y) / max(abs(x), abs(y)) for x, y in pairs)
    return ("close" if rel_diff <= rtol else "DIFFERS",
            f"{len(pairs)} numbers differ, max abs {abs_diff:.3g}, max rel {rel_diff:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative difference within which numbers count as close")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        for name, text in {**EDGE_FILES, **CONFIG_FILES}.items():
            (tmp / name).write_text(text, newline="")
        extract(args.against, tmp / "base")
        failed = [f"{args.against}: {f}" for f in run_commands(tmp / "base", tmp / "out-base")]
        failed += [f"working tree: {f}" for f in run_commands(ROOT, tmp / "out-here")]
        for f in failed:
            print(f"FAILED     {f}")
        names = sorted({p.relative_to(d).as_posix()
                        for d in (tmp / "out-base", tmp / "out-here")
                        for p in d.rglob("*") if p.is_file()})
        counts = {"identical": 0, "close": 0, "DIFFERS": 0}
        for name in names:
            a, b = tmp / "out-base" / name, tmp / "out-here" / name
            if not (a.exists() and b.exists()):
                verdict = "DIFFERS", f"only in {'the working tree' if b.exists() else args.against}"
            else:
                verdict = compare(a.read_bytes(), b.read_bytes(), args.rtol)
            counts[verdict[0]] += 1
            print(f"{verdict[0]:9}  {name}" + (f": {verdict[1]}" if verdict[1] else ""))
    print(f"{len(names)} outputs against {args.against}: {counts['identical']} identical, "
          f"{counts['close']} close (rtol {args.rtol:g}), {counts['DIFFERS']} differ")
    return 1 if counts["DIFFERS"] or failed else 0


if __name__ == "__main__":
    sys.exit(main())
