#!/usr/bin/env bash
# lint.sh — the lint steps of CI's lint-build job: gofmt, go vet,
# staticcheck and the repo's analyzers.
#
# Run it (or `make lint`) before pushing: every check here gates merges. It
# is not the whole job: the Prometheus exposition lint, the builds, the
# arm64 fused-multiply-add check of the model stack, the GOAMD64=v3
# identity tests, the CLI and datawa-serve smokes and the fuzz smokes of
# lint-build run only in CI.
#
#   1. gofmt         — formatting, including analyzer testdata fixtures
#   2. go vet        — the stock analyzers
#   3. staticcheck   — pinned on the command line below (the module has no
#                      dependencies, so go.mod carries no tool pin); skipped
#                      with a warning when the module cache is cold and the
#                      network is unreachable, so offline dev containers
#                      still get the rest of the suite
#   4. analyzers     — go test -count=1 ./internal/analysis/...: the repo's
#                      own three analyzers (determinism, lock discipline,
#                      hot-path allocations), their fixture tests, and
#                      TestModuleIsClean, which runs them over every package
#                      of the module type-checked from the build's export data
set -u
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needs to run on:"
    echo "$unformatted"
    fail=1
fi

echo "== go vet =="
go vet ./... || fail=1

echo "== staticcheck =="
# The same release CI runs. Probe with network-free resolution first: if the
# pinned module is neither in the module cache nor downloadable, skip rather
# than fail — CI always runs it, so nothing merges unchecked.
staticcheck=honnef.co/go/tools/cmd/staticcheck@v0.6.1
if GOPROXY=off go run "$staticcheck" -debug.version >/dev/null 2>&1; then
    GOPROXY=off go run "$staticcheck" ./... || fail=1
elif go run "$staticcheck" -debug.version >/dev/null 2>&1; then
    go run "$staticcheck" ./... || fail=1
else
    echo "staticcheck unavailable (cold module cache, no network); skipping — CI still runs it"
fi

echo "== analyzers =="
go test -count=1 ./internal/analysis/... || fail=1

if [ "$fail" -ne 0 ]; then
    echo "LINT FAILED"
    exit 1
fi
echo "LINT OK"
