// Package vet assembles ghbavet — the repo's custom go/analysis suite.
//
// One syntactic analyzer mechanically enforces a per-package convention
// the determinism work rests on:
//
//   - detrand: engines draw randomness only from caller-supplied
//     *rand.Rand values; no clock seeding; no map-order-dependent output
//
// One fact-based analyzer sees across package boundaries:
//
//   - lockorder: assembles the global lock-acquisition graph from
//     per-package facts and reports cycles (potential deadlocks) with
//     both witness paths; `ghbavet -lockgraph` dumps it as DOT. Its
//     held-lock walk also enforces the *Locked suffix contract (callers
//     hold mu; helpers never re-acquire it; defer pairing; no re-lock of
//     a held mutex) and writer-side atomic.Pointer publication
//
// Two properties are tests, not analyzers, because the tests see what the
// program does: allocation-freedom of the lookup walk (each package
// measures it with testing.AllocsPerRun, which sees what escape analysis
// actually decides), and the immutability of what the five atomic.Pointer
// fields publish (tests that race readers against each publisher, run
// under -race).
//
// Run them via cmd/ghbavet: `go vet -vettool=$(which ghbavet) ./...`.
package vet

import (
	"golang.org/x/tools/go/analysis"

	"ghba/internal/vet/detrand"
	"ghba/internal/vet/lockorder"
)

// Analyzers is the full ghbavet suite, in the order findings print.
var Analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	lockorder.Analyzer,
}
