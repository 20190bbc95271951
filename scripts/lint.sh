#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate: gofmt cleanliness plus the
# sovlint invariant suite (determinism, hot-path allocation, concurrency
# hygiene; see DESIGN.md §7). Exits non-zero on any finding so CI and
# pre-push hooks can use it directly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "all files formatted"

echo "== sovlint =="
go build -o /dev/null ./cmd/sovlint
go run ./cmd/sovlint "$@" ./...
echo "no findings"
