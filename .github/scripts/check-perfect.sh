#!/bin/sh
# Usage: check-perfect.sh STEM...
#
# For each STEM, validates the complex STEM.cwp with the field STEM.dvf
# and the function STEM.dmf, then requires the counts line of
# `dms critical` to equal `dms betti`, the GF(2) Betti numbers ranked
# independently of the field.  Exits non-zero at the first failure.
set -e
export PYTHONPATH="$(dirname "$0")/../../src${PYTHONPATH:+:$PYTHONPATH}"
for stem in "$@"; do
  python -m dms.cli validate --complex "$stem.cwp" --field "$stem.dvf" \
    --function "$stem.dmf"
  python -m dms.cli critical --complex "$stem.cwp" --field "$stem.dvf" \
    > "$stem.critical.txt"
  counts=$(head -n 1 "$stem.critical.txt")
  betti=$(python -m dms.cli betti --complex "$stem.cwp")
  if [ "$counts" != "$betti" ]; then
    echo "$stem: critical counts $counts, Betti numbers $betti"
    exit 1
  fi
done
