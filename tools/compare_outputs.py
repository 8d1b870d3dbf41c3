"""Check that the working tree writes every output of a revision unchanged.

    python tools/compare_outputs.py REV

extracts REV of this repository with ``git archive`` into a temporary
directory, runs ``tools/outputs.py`` in that tree and in the working tree
(uncommitted changes included), and compares the two output directories
file by file, byte for byte, as ``diff -r`` would.  It prints every file
that differs or exists on one side only, and exits 1 if there is any, 0
if there is none, and 2 if REV cannot be extracted or an outputs run
fails.  The temporary directory is removed in every case.  It needs only
the standard library and git.
"""

import io
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def differences(a: Path, b: Path, names: tuple[str, str]) -> list[str]:
    """A line for each file under ``a`` or ``b`` that differs from its
    namesake, or has none under the other (named by ``names``), in order of
    its path relative to them."""
    files = [{str(p.relative_to(top)): p for p in top.rglob("*")
              if p.is_file()} for top in (a, b)]
    out = []
    for rel in sorted(files[0].keys() | files[1].keys()):
        pa, pb = files[0].get(rel), files[1].get(rel)
        if pa is None or pb is None:
            out.append(f"only in {names[pa is None]}: {rel}")
        elif pa.read_bytes() != pb.read_bytes():
            out.append(f"differs: {rel}")
    return out


def _outputs(tree: Path, out_dir: Path) -> None:
    subprocess.run([sys.executable, str(tree / "tools" / "outputs.py"),
                    str(out_dir)], check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    (rev,) = argv
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        try:
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", "--format=zip", rev],
                check=True, capture_output=True).stdout
            zipfile.ZipFile(io.BytesIO(archive)).extractall(tmp / "rev")
            _outputs(tmp / "rev", tmp / "out-rev")
            _outputs(ROOT, tmp / "out-work")
        except subprocess.CalledProcessError as exc:
            err = exc.stderr.decode(errors="replace") if exc.stderr else ""
            print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}\n"
                  f"{err}", file=sys.stderr, end="")
            return 2
        diff = differences(tmp / "out-rev", tmp / "out-work",
                           (rev, "the working tree"))
        count = sum(1 for p in (tmp / "out-rev").rglob("*") if p.is_file())
    for line in diff:
        print(line)
    print(f"{len(diff)} of {count} files of {rev} differ" if diff
          else f"no difference: the {count} files of {rev} match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
