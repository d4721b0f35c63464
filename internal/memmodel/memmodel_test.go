package memmodel

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResidentFraction(t *testing.T) {
	m := New(1000)
	if got := m.ResidentFraction(0); got != 1 {
		t.Errorf("empty working set fraction = %f, want 1", got)
	}
	if got := m.ResidentFraction(500); got != 1 {
		t.Errorf("under-budget fraction = %f, want 1", got)
	}
	if got := m.ResidentFraction(2000); got != 0.5 {
		t.Errorf("2x over-budget fraction = %f, want 0.5", got)
	}
	zero := New(0)
	if got := zero.ResidentFraction(100); got != 0 {
		t.Errorf("zero-budget fraction = %f, want 0", got)
	}
}

func TestSpilledReplicas(t *testing.T) {
	m := New(1000)
	if got := m.SpilledReplicas(0, 0); got != 0 {
		t.Errorf("no replicas spilled = %d", got)
	}
	if got := m.SpilledReplicas(10, 500); got != 0 {
		t.Errorf("fits in RAM but spilled = %d", got)
	}
	if got := m.SpilledReplicas(10, 2000); got != 5 {
		t.Errorf("half-spill = %d, want 5", got)
	}
	if got := New(0).SpilledReplicas(10, 100); got != 10 {
		t.Errorf("zero budget spill = %d, want 10", got)
	}
}

func TestSpilledShare(t *testing.T) {
	m := New(1000)
	if got := m.SpilledShare(0, 0); got != 0 {
		t.Errorf("empty array share = %f, want 0", got)
	}
	if got := m.SpilledShare(10, 500); got != 0 {
		t.Errorf("fits in RAM but share = %f", got)
	}
	if got := m.SpilledShare(20, 2000); got != 0.5 {
		t.Errorf("half-spill share = %f, want 0.5", got)
	}
	if got := New(0).SpilledShare(10, 100); got != 1 {
		t.Errorf("zero budget share = %f, want 1", got)
	}
}

func TestNilModelIsUnlimited(t *testing.T) {
	var m *Model
	if got := m.ResidentFraction(1 << 40); got != 1 {
		t.Errorf("nil model resident fraction = %f, want 1", got)
	}
	if got := m.SpilledShare(10, 1<<40); got != 0 {
		t.Errorf("nil model share = %f, want 0", got)
	}
	if got := m.ArrayProbeCost(10, 1<<40, time.Microsecond, time.Millisecond, 0); got != 10*time.Microsecond {
		t.Errorf("nil model cost = %v, want 10 memory probes", got)
	}
}

func TestSpilledReplicasBounds(t *testing.T) {
	err := quick.Check(func(budget, totalBytes uint64, total uint16) bool {
		m := New(budget % (1 << 40))
		n := int(total % 1000)
		spilled := m.SpilledReplicas(n, totalBytes%(1<<40))
		return spilled >= 0 && spilled <= n
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Errorf("spill out of bounds: %v", err)
	}
}

func TestArrayProbeCostAllResident(t *testing.T) {
	m := New(1 << 30)
	mem, disk := time.Microsecond, 5*time.Millisecond
	got := m.ArrayProbeCost(100, 1<<20, mem, disk, 0)
	if got != 100*mem {
		t.Errorf("all-resident cost = %v, want %v", got, 100*mem)
	}
}

func TestArrayProbeCostAllSpilled(t *testing.T) {
	m := New(0)
	mem, disk := time.Microsecond, 5*time.Millisecond
	got := m.ArrayProbeCost(10, 1<<20, mem, disk, 0)
	if got != 10*disk {
		t.Errorf("all-spilled cost = %v, want %v", got, 10*disk)
	}
}

func TestArrayProbeCostCacheDamping(t *testing.T) {
	m := New(0)
	mem, disk := time.Microsecond, 5*time.Millisecond
	full := m.ArrayProbeCost(10, 1<<20, mem, disk, 0)
	damped := m.ArrayProbeCost(10, 1<<20, mem, disk, 0.9)
	if damped >= full {
		t.Errorf("cache damping did not reduce cost: %v >= %v", damped, full)
	}
	if damped < full/20 {
		t.Errorf("damping too strong: %v vs %v", damped, full)
	}
}

func TestArrayProbeCostClampsCacheRate(t *testing.T) {
	m := New(0)
	mem, disk := time.Microsecond, 5*time.Millisecond
	// Negative clamps to 0; ≥1 clamps just below 1 (cost stays positive).
	if got := m.ArrayProbeCost(10, 1<<20, mem, disk, -5); got != 10*disk {
		t.Errorf("negative cache rate cost = %v, want %v", got, 10*disk)
	}
	if got := m.ArrayProbeCost(10, 1<<20, mem, disk, 2); got <= 0 {
		t.Errorf("cache rate ≥1 produced non-positive cost %v", got)
	}
}

func TestArrayProbeCostZeroReplicas(t *testing.T) {
	m := New(100)
	if got := m.ArrayProbeCost(0, 0, time.Microsecond, time.Millisecond, 0); got != 0 {
		t.Errorf("zero replicas cost %v", got)
	}
}

func TestArrayProbeCostMonotonicInPressure(t *testing.T) {
	// More memory never makes probes slower.
	mem, disk := time.Microsecond, 5*time.Millisecond
	workSet := uint64(100 << 20)
	prev := time.Duration(1 << 62)
	for _, budgetMB := range []uint64{0, 25, 50, 75, 100, 200} {
		cost := New(budgetMB<<20).ArrayProbeCost(100, workSet, mem, disk, 0.5)
		if cost > prev {
			t.Fatalf("cost increased with more memory: %v MB → %v", budgetMB, cost)
		}
		prev = cost
	}
}
