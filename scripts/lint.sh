#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate: gofmt cleanliness, go vet
# (which owns the locks-by-value rule via copylocks), and the sovlint
# invariant suite (determinism, hot-path allocation, pooled-buffer
# ownership; see DESIGN.md §7). Exits non-zero on any finding so CI and
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

echo "== go vet =="
go vet ./...
echo "no findings"

echo "== sovlint =="
go build -o /dev/null ./cmd/sovlint
go run ./cmd/sovlint "$@" ./...
echo "no findings"
