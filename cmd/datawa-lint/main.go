// Command datawa-lint is the repo's static-analysis suite, run as a vet
// tool:
//
//	go build -o bin/datawa-lint ./cmd/datawa-lint
//	go vet -vettool=bin/datawa-lint ./...
//
// It bundles three analyzers (see docs/LINTING.md for the catalog and the
// //datawa: annotation vocabulary):
//
//	determinism  map-order, ambient clock/rand/env, bare goroutines
//	guarded      `guarded by mu` fields and //datawa:serialized types
//	hotpath      allocation discipline in //datawa:hotpath functions
//
// Individual analyzers can be selected the usual vet way:
// go vet -vettool=bin/datawa-lint -determinism ./...
package main

import (
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/guarded"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/unit"
)

func main() {
	unit.Main(
		determinism.Analyzer,
		guarded.Analyzer,
		hotpath.Analyzer,
	)
}
