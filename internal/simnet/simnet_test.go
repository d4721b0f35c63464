package simnet

import (
	"sync"
	"testing"
	"time"
)

func TestDefaultCostModelValid(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatalf("default cost model invalid: %v", err)
	}
}

func TestValidateRejectsNonPositive(t *testing.T) {
	c := DefaultCostModel()
	c.MemProbe = 0
	if err := c.Validate(); err == nil {
		t.Error("zero MemProbe accepted")
	}
	c = DefaultCostModel()
	c.DiskRead = -time.Millisecond
	if err := c.Validate(); err == nil {
		t.Error("negative DiskRead accepted")
	}
}

func TestMulticastLatency(t *testing.T) {
	c := DefaultCostModel()
	if c.Multicast(0) != 0 {
		t.Error("zero fanout costs non-zero")
	}
	if c.Multicast(-3) != 0 {
		t.Error("negative fanout costs non-zero")
	}
	// One receiver: depth ⌈log2(2)⌉ = 1 → one RTT.
	if got := c.Multicast(1); got != c.UnicastRTT {
		t.Errorf("Multicast(1) = %v, want %v", got, c.UnicastRTT)
	}
	// Tree depth grows logarithmically, not linearly.
	d7, d100 := c.Multicast(7), c.Multicast(100)
	if d7 != 3*c.UnicastRTT {
		t.Errorf("Multicast(7) = %v, want %v", d7, 3*c.UnicastRTT)
	}
	if d100 != 7*c.UnicastRTT {
		t.Errorf("Multicast(100) = %v, want %v", d100, 7*c.UnicastRTT)
	}
	if d100 >= 100*c.UnicastRTT/2 {
		t.Error("multicast cost is not sublinear")
	}
}

func TestMulticastMonotonic(t *testing.T) {
	c := DefaultCostModel()
	prev := time.Duration(0)
	for fanout := 1; fanout <= 256; fanout *= 2 {
		cur := c.Multicast(fanout)
		if cur < prev {
			t.Fatalf("Multicast(%d) = %v < previous %v", fanout, cur, prev)
		}
		prev = cur
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgQueryUnicast:     "query-unicast",
		MsgQueryMulticast:   "query-multicast",
		MsgReplicaMigration: "replica-migration",
		MsgReplicaUpdate:    "replica-update",
		MsgMembership:       "membership",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type produced empty string")
	}
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Add(MsgReplicaMigration, 5)
	c.Add(MsgReplicaMigration, 2)
	c.Add(MsgQueryUnicast, 1)
	if got := c.Get(MsgReplicaMigration); got != 7 {
		t.Errorf("Get = %d, want 7", got)
	}
	if got := c.Total(); got != 8 {
		t.Errorf("Total = %d, want 8", got)
	}
	snap := c.Snapshot()
	if len(snap) != 2 || snap[MsgReplicaMigration] != 7 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestCounterIgnoresInvalidTypes(t *testing.T) {
	c := NewCounter()
	c.Add(MsgType(0), 3)
	c.Add(MsgType(1000), 3)
	if c.Total() != 0 {
		t.Error("invalid types were counted")
	}
	if c.Get(MsgType(0)) != 0 || c.Get(MsgType(1000)) != 0 {
		t.Error("Get of invalid type non-zero")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(MsgQueryMulticast, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(MsgQueryMulticast); got != workers*per {
		t.Errorf("concurrent count = %d, want %d", got, workers*per)
	}
}

// TestCounterStripesSum pins the striped reads: writers on stripes beyond
// the stripe count (which wrap) and on stripe 0 through Add sum exactly.
func TestCounterStripesSum(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	const writers, per = 3 * counterStripes, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddAt(w, MsgQueryUnicast, 1)
				c.AddAt(w, MsgQueryMulticast, uint64(w))
			}
		}()
	}
	c.Add(MsgQueryUnicast, 7)
	wg.Wait()
	if got, want := c.Get(MsgQueryUnicast), uint64(writers*per+7); got != want {
		t.Errorf("Get(unicast) = %d, want %d", got, want)
	}
	want := uint64(per * writers * (writers - 1) / 2)
	if got := c.Get(MsgQueryMulticast); got != want {
		t.Errorf("Get(multicast) = %d, want %d", got, want)
	}
	if got := c.Total(); got != writers*per+7+want {
		t.Errorf("Total = %d, want %d", got, writers*per+7+want)
	}
	if snap := c.Snapshot(); len(snap) != 2 || snap[MsgQueryMulticast] != want {
		t.Errorf("Snapshot = %v", snap)
	}
}
