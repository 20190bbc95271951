#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate: gofmt cleanliness, go vet
# (which owns the locks-by-value rule via copylocks) and the guard that keeps
# the Config-default shims callerless outside benchmark/. Determinism and
# hot-path allocation are runtime rules: TestDeterminism and the zero-alloc
# tests own them (DESIGN.md §7). The serial-by-construction and
# one-owner-per-buffer guards are the type-checked TestStructuralGuards,
# which go test ./... runs. Exits non-zero on any finding so CI and pre-push
# hooks can use it directly.
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

echo "== explicit Config =="
if named=$(grep -rlE --include='*.go' --exclude='*_test.go' 'Set(Pipeline|Quant|Sched)Default' . |
    grep -v -e '^\./internal/core/config\.go$' -e '^\./benchmark/'); then
    echo "non-test Go must not name core.SetPipelineDefault, SetQuantDefault or SetSchedDefault: they are inert shims kept for benchmark/ alone; set the Config field instead (ROADMAP item 7 deletes them):" >&2
    echo "$named" >&2
    exit 1
fi
echo "no process-wide Config defaults"
