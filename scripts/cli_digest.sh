#!/bin/sh
# Run the fixed CLI command set against one checkout and print a sha256sum
# listing of its stdout and every file it wrote.
#
#   scripts/cli_digest.sh SRC
#
# SRC is the checkout's src directory.  The commands are the lines of
# tests/cli_digest_commands.txt next to this script, which
# tests/test_cli_digest.py runs in process against the committed listing
# tests/cli_digest.sha256; re-record that listing with
#
#   scripts/cli_digest.sh src > tests/cli_digest.sha256
#
# The first line names the numpy, scipy and OpenBLAS versions the listing was
# taken under.  Refactors are checked by running this on the parent and on the
# change and diffing the two listings, which must match line for line.  The
# commands run in a temporary directory that is removed afterwards; the set
# takes 10-20 s.
set -eu
if [ $# -ne 1 ] || [ ! -d "$1/spintransfer" ]; then
    echo "usage: $0 SRC   (SRC: a checkout's src directory)" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
commands=$(cd "$(dirname "$0")/../tests" && pwd)/cli_digest_commands.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
# the versions line tests/test_cli_digest.py compares first
python -c '
import numpy, scipy
blas = [m.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        for m in (numpy, scipy)]
print(f"# numpy {numpy.__version__}, scipy {scipy.__version__}, "
      f"OpenBLAS {blas[0]} (numpy), {blas[1]} (scipy)")'
while IFS= read -r c; do
    case $c in ''|'#'*) continue ;; esac
    # shellcheck disable=SC2086  # each command is split into its arguments on purpose
    PYTHONPATH="$src" python -m spintransfer $c < /dev/null
done < "$commands" > stdout.txt
sha256sum *
