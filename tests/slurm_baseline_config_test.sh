#!/usr/bin/env sh
# configs/dps.ini lists DPS's own [stateless] (Algorithm 1) values, which
# differ from the SLURM plugin's. Loading the file must tune DPS only: exp's
# SLURM baseline keeps the plugin defaults, so a SLURM run prints the same
# with and without --config. Registered with ctest by tests/CMakeLists.txt,
# which passes the source and build directories.
set -eu

SOURCE_DIR="${1:?usage: slurm_baseline_config_test.sh <source_dir> <build_dir>}"
BUILD_DIR="${2:?usage: slurm_baseline_config_test.sh <source_dir> <build_dir>}"
OUT="${TMPDIR:-/tmp}/slurm_baseline_$$"

"$BUILD_DIR/tools/exp" --manager slurm --repeats 1 > "$OUT.plain"
"$BUILD_DIR/tools/exp" --manager slurm --repeats 1 \
  --config "$SOURCE_DIR/configs/dps.ini" > "$OUT.config"
STATUS=0
cmp -s "$OUT.plain" "$OUT.config" || STATUS=1
[ "$STATUS" -eq 0 ] || diff "$OUT.plain" "$OUT.config" || true
rm -f "$OUT.plain" "$OUT.config"
exit "$STATUS"
