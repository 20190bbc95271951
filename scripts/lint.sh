#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate: gofmt cleanliness, go vet
# (which owns the locks-by-value rule via copylocks), the import guard that
# keeps the control loop and the telemetry store serial by construction
# (DESIGN.md §10), the guard that keeps every scratch buffer single-owner
# (no sync.Pool), the guard that keeps the Config-default shims callerless
# outside benchmark/, and the sovlint invariant suite (determinism and hot-path
# allocation; see DESIGN.md §7). Exits non-zero on any finding so CI and
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

echo "== serial by construction =="
imports=$(go list -f '{{join .Imports "\n"}}' ./internal/core ./internal/telemetry)
if grep -qx 'sov/internal/parallel' <<<"$imports"; then
    echo "internal/core and internal/telemetry must not import sov/internal/parallel: neither has a fan-out that earns its keep (testdata/audit/fanout_audit.md)" >&2
    exit 1
fi
echo "internal/core and internal/telemetry import no worker pool"

echo "== one owner per buffer =="
if pooled=$(grep -rl --include='*.go' --exclude='*_test.go' 'sync\.Pool' internal cmd); then
    echo "non-test Go under internal/ and cmd/ must not use sync.Pool: a scratch buffer belongs to its kernel instance or to a caller-held ...Scratch (DESIGN.md §10):" >&2
    echo "$pooled" >&2
    exit 1
fi
echo "no shared scratch pools"

echo "== explicit Config =="
if named=$(grep -rlE --include='*.go' --exclude='*_test.go' 'Set(Pipeline|Quant|Sched)Default' . |
    grep -v -e '^\./internal/core/config\.go$' -e '^\./benchmark/'); then
    echo "non-test Go must not name core.SetPipelineDefault, SetQuantDefault or SetSchedDefault: they are inert shims kept for benchmark/ alone; set the Config field instead (ROADMAP item 7 deletes them):" >&2
    echo "$named" >&2
    exit 1
fi
echo "no process-wide Config defaults"

echo "== sovlint =="
go build -o /dev/null ./cmd/sovlint
go run ./cmd/sovlint "$@" ./...
echo "no findings"
