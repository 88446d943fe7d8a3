#!/bin/sh
# Run the fixed CLI command set against one checkout and print a sha256sum
# listing of its stdout and every file it wrote.
#
#   scripts/cli_digest.sh SRC
#
# SRC is the checkout's src directory.  Refactors are checked by running this
# on the parent and on the change and diffing the two listings, which must
# match line for line.  The commands run in a temporary directory that is
# removed afterwards; the set takes 10-20 s.
set -eu
if [ $# -ne 1 ] || [ ! -d "$1/spintransfer" ]; then
    echo "usage: $0 SRC   (SRC: a checkout's src directory)" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
for c in \
    "build --model pst --n 51 --out build.json" \
    "fidelity --model apollaro --x 0.43 --y 0.73 --time auto --out fid.json --encoding-out enc.json" \
    "fidelity --model uniform --n 51 --window 5 --encoding-out enc5.json" \
    "sweep --model uniform --time auto --samples 50 --out uni.csv --descriptor uni.json" \
    "sweep --model pst --n 51 --window 5 --j-axis 0:0.2:0.1 --b-axis 0:0.2:0.1 --samples 100 --seed 1 --out pst.csv" \
    "optimize --n 51 --window 1 --out opt.json" \
    "optimize --landscape --out land.csv" \
    "oracle --n 8 --k 2 --t 3.7 --out oracle.json" \
    "sweep --model uniform --n 201 --time 100 --j-axis 0:0.1:0.1 --b-axis 0.05 --samples 200 --seed 2 --out u201.csv" \
    "sweep --model apollaro --x 0.43 --y 0.73 --n 51 --window 3 --j-axis 0:0.3:0.1 --b-axis 0:0.2:0.1 --samples 300 --seed 4 --out apo3.csv" \
    "fidelity --n 31 --window-in 3 --window-out 2 --encoding-out enc32.json --out fid32.json" \
    "sweep --model pst --n 31 --window-in 2 --window-out 4 --j-axis 0:0.2:0.1 --b-axis 0.05 --samples 100 --seed 3 --out pst24.csv" \
    "sweep --model apollaro --x 0.43 --y 0.73 --n 51 --window 3 --j-axis 0:0.2:0.1 --b-axis 0 --samples 200 --seed 5 --out apo3j.csv" \
    "optimize --landscape --delta 0.1 --window 3 --x-axis 0.4:0.6:0.1 --y-axis 0.7:0.9:0.1 --out land3.csv" \
    "optimize --landscape --window 3 --x-axis 0.4:0.5:0.1 --y-axis 0.000001:0.800001:0.4 --out land3d.csv" \
    "optimize --landscape --delta 0.1 --window 3 --x-axis 0.4:0.5:0.1 --y-axis 0.000001:0.800001:0.4 --out landfloor.csv" \
    "optimize --n 31 --window 1 --restarts 3 --trace --out optt.json" \
    "optimize --n 31 --window 3 --delta 0.1 --samples 50 --restarts 2 --trace --out optq.json" \
    "optimize --n 31 --restarts 0 --trace --out opt0.json" \
    "optimize --n 31 --restarts 6 --trace --out opt6.json"
do
    # shellcheck disable=SC2086  # each command is split into its arguments on purpose
    PYTHONPATH="$src" python -m spintransfer $c
done > stdout.txt
sha256sum *
