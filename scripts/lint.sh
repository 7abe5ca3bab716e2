#!/usr/bin/env bash
# lint.sh — the full lint suite, identical to CI's lint-build job.
#
# Run it (or `make lint`) before pushing: every check here gates merges, so a
# clean local run means the lint job cannot be the reason CI goes red.
#
#   1. gofmt         — formatting, including analyzer testdata fixtures
#   2. go vet        — the stock analyzers
#   3. staticcheck   — pinned on the command line below (the module has no
#                      dependencies, so go.mod carries no tool pin); skipped
#                      with a warning when the module cache is cold and the
#                      network is unreachable, so offline dev containers
#                      still get the rest of the suite
#   4. datawa-lint   — the repo's own go/analysis suite, three analyzers
#                      (determinism, lock discipline, hot-path allocations),
#                      built from source and run through go vet -vettool so
#                      package loading matches the build exactly
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

echo "== datawa-lint =="
mkdir -p bin
if go build -o bin/datawa-lint ./cmd/datawa-lint; then
    go vet -vettool="$PWD/bin/datawa-lint" ./... || fail=1
else
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "LINT FAILED"
    exit 1
fi
echo "LINT OK"
