"""The fixed CLI command set, run in process, against its committed sha256 listing.

tests/cli_digest_commands.txt holds the commands; scripts/cli_digest.sh runs the same list
as subprocesses and prints the listing committed as tests/cli_digest.sha256, whose first
line names the library versions it was taken under.  A change that moves an output byte on
purpose re-records the listing and names each changed file.
"""

import hashlib
from pathlib import Path

import numpy
import pytest
import scipy

from spintransfer.cli import main

HERE = Path(__file__).parent


def library_versions():
    """The listing's first line, as scripts/cli_digest.sh prints it."""
    blas = [m.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
            for m in (numpy, scipy)]
    return (f"# numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"OpenBLAS {blas[0]} (numpy), {blas[1]} (scipy)")


def test_cli_outputs_match_the_committed_listing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    stdout = []
    for line in (HERE / "cli_digest_commands.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            assert main(line.split()) == 0, line
            stdout.append(capsys.readouterr().out)
    (tmp_path / "stdout.txt").write_text("".join(stdout))
    got = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
           for path in sorted(tmp_path.iterdir())]
    recorded, *want = (HERE / "cli_digest.sha256").read_text().splitlines()
    if got != want and recorded != library_versions():
        pytest.fail(f"tests/cli_digest.sha256 was taken under\n  {recorded[2:]}\nbut this "
                    f"run has\n  {library_versions()[2:]}\nso its hashes need not hold here; "
                    f"re-record it with scripts/cli_digest.sh src", pytrace=False)
    assert got == want
