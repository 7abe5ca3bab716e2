# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test lint vet race bench benchmark

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The pre-push gate: gofmt, go vet, staticcheck (when cached), the analyzer
# suite — the lint steps of CI's lint-build job, not its builds, smokes or
# fuzzing; see docs/LINTING.md.
lint:
	./scripts/lint.sh

# Just the repo's own three analyzers (determinism, guarded, hotpath), for a
# fast determinism/locking/hot-path check: their fixture tests and
# TestModuleIsClean, which runs them over every package of the module.
vet:
	go test -count=1 ./internal/analysis/...

bench:
	go test -run=NONE -bench=. -benchtime=1x ./...

# The repository benchmark (BENCHMARK.json): all four live-replay workloads,
# one process each, end-to-end metrics and output checks. See
# benchmark/README.md for single workloads, seeds and the traced mode.
benchmark:
	bash benchmark/run.sh
