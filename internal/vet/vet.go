// Package vet assembles ghbavet — the repo's custom go/analysis suite.
//
// One syntactic analyzer mechanically enforces a per-package convention
// the determinism work rests on:
//
//   - detrand: engines draw randomness only from caller-supplied
//     *rand.Rand values; no clock seeding; no map-order-dependent output
//
// Two fact-based analyzers see across package boundaries:
//
//   - lockorder: assembles the global lock-acquisition graph from
//     per-package facts and reports cycles (potential deadlocks) with
//     both witness paths; `ghbavet -lockgraph` dumps it as DOT. Its
//     held-lock walk also enforces the *Locked suffix contract (callers
//     hold mu; helpers never re-acquire it; defer pairing; no re-lock of
//     a held mutex) and writer-side atomic.Pointer publication
//   - snapcheck: enforces the epoch/COW discipline — memory published
//     through an atomic.Pointer is immutable, readers never write
//     through a loaded snapshot
//
// Allocation-freedom of the lookup walk is not modelled here: each package's
// tests measure it with testing.AllocsPerRun, which sees what escape
// analysis actually decides.
//
// Run them via cmd/ghbavet: `go vet -vettool=$(which ghbavet) ./...`.
package vet

import (
	"golang.org/x/tools/go/analysis"

	"ghba/internal/vet/detrand"
	"ghba/internal/vet/lockorder"
	"ghba/internal/vet/snapcheck"
)

// Analyzers is the full ghbavet suite, in the order findings print.
var Analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	lockorder.Analyzer,
	snapcheck.Analyzer,
}
