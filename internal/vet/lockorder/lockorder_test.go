package lockorder_test

import (
	"testing"

	"ghba/internal/vet/lockorder"
	"ghba/internal/vet/vettest"
)

func TestLockorder(t *testing.T) {
	vettest.Run(t, "testdata", lockorder.Analyzer, "lockorder1")
}

// TestLockorderHeldRules runs the held-lock rules (re-acquire, *Locked
// callers, deferred-release kind, epoch Store) over their fixtures.
func TestLockorderHeldRules(t *testing.T) {
	vettest.Run(t, "testdata", lockorder.Analyzer, "a", "regress")
}

// TestLockorderCrossPackage runs both halves of a two-package cycle in
// one fact session: locka exports its summaries, lockb closes the cycle.
func TestLockorderCrossPackage(t *testing.T) {
	vettest.RunMulti(t, "testdata", lockorder.Analyzer, "locka", "lockb")
}
