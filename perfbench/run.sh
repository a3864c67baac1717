#!/usr/bin/env bash
# Build the `spire` binary (the server the serve workloads start) and the
# `perfbench` binary from source, then run `perfbench` with this script's
# arguments:
#
#   bash perfbench/run.sh --workload compile-matrix --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
target="${target#./}"
# Build only when the sources differ from those of the last build. Cargo
# alone would rebuild on every run in a checkout without `.git`:
# spire-serve's build script watches `.git/HEAD`, and a watched file that
# is missing always counts as changed (≈35 s of rebuilding per run).
sources=$(find . \( -path "./$target" -o -path ./.perfbench-work -o -path ./target \
    -o -path ./.git \) -prune -o -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum)
stamp="$target/perfbench-sources.sha256"
if [ ! -x "$target/release/spire" ] || [ ! -x "$target/release/perfbench" ] \
    || [ "$(cat "$stamp" 2>/dev/null)" != "$sources" ]; then
    CARGO_TARGET_DIR="$target" cargo build --quiet --offline --release \
        --manifest-path Cargo.toml -p spire-cli >&2
    CARGO_TARGET_DIR="$target" cargo build --quiet --offline --release \
        --manifest-path perfbench/Cargo.toml >&2
    printf '%s\n' "$sources" > "$stamp"
fi
exec "$target/release/perfbench" --spire "$target/release/spire" "$@"
