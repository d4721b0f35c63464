package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/layouts.golden from the current engine")

// layoutSchedule is one pinned reconfiguration history: a cluster shape, an
// optional scripted prefix ("a" adds, "r:ID" removes, "f:ID" fails) and a
// seeded random tail that fills the schedule up to steps.
type layoutSchedule struct {
	n, m   int
	seed   int64
	prefix []string
	steps  int
}

// layoutSchedules covers what the placement policy branches on: a full even
// partition whose first join splits (12/4, 7/7), an uneven partition whose
// first join has room (10/4, 20/7, 5/3), groups of one where every join is a
// split and every departure dissolves a group (8/1), and a scripted history
// in which a group shrinks to its last member and then dissolves (6/2).
var layoutSchedules = []layoutSchedule{
	{n: 12, m: 4, seed: 1, steps: 48},
	{n: 10, m: 4, seed: 2, steps: 48},
	{n: 8, m: 1, seed: 3, steps: 44},
	{n: 6, m: 2, seed: 4, steps: 44, prefix: []string{"f:0", "f:1", "r:3", "a", "f:2", "a", "a"}},
	{n: 7, m: 7, seed: 5, steps: 44},
	{n: 20, m: 7, seed: 6, steps: 48},
	{n: 5, m: 3, seed: 7, steps: 44, prefix: []string{"r:4", "f:3", "a", "a", "a"}},
}

// nextStep draws one random step for the current population: joins while the
// cluster is small, departures while it is large, a mix in between.
func nextStep(rng *rand.Rand, ids []int, n int) string {
	roll := rng.Intn(10)
	victim := ids[rng.Intn(len(ids))]
	switch {
	case len(ids) <= 2 || (len(ids) < n+6 && roll < 4):
		return "a"
	case roll < 7:
		return "r:" + strconv.Itoa(victim)
	default:
		return "f:" + strconv.Itoa(victim)
	}
}

// applyStep runs one step and returns the line describing its report.
func applyStep(t *testing.T, c *Cluster, step string) string {
	t.Helper()
	op, arg, _ := strings.Cut(step, ":")
	id, _ := strconv.Atoi(arg)
	switch op {
	case "a":
		id, rep, err := c.AddMDS()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return fmt.Sprintf("add -> id=%d migrated=%d messages=%d", id, rep.ReplicasMigrated, rep.Messages)
	case "r":
		rep, err := c.RemoveMDS(id)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return fmt.Sprintf("remove %d -> migrated=%d messages=%d", id, rep.ReplicasMigrated, rep.Messages)
	case "f":
		rep, err := c.FailMDS(id)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return fmt.Sprintf("fail %d -> refetched=%d messages=%d", id, rep.ReplicasRefetched, rep.Messages)
	}
	t.Fatalf("bad step %q", step)
	return ""
}

// dumpLayout writes one line per group: its ID, its members, and every
// replica it holds as origin@holder in ascending origin order.
func dumpLayout(b *bytes.Buffer, c *Cluster) {
	for _, g := range c.Layout().Groups() {
		fmt.Fprintf(b, "  g%d %v", g.ID, g.Members)
		for _, r := range g.Replicas {
			fmt.Fprintf(b, " %d@%d", r.Origin, r.Holder)
		}
		b.WriteByte('\n')
	}
}

// TestLayoutSchedules pins the placement policy: after every step of every
// schedule, the groups, the holder of every replica and the reported cost
// must match testdata/layouts.golden byte for byte. Run with -update to
// rewrite the file.
func TestLayoutSchedules(t *testing.T) {
	var b bytes.Buffer
	for _, s := range layoutSchedules {
		c := newPopulated(t, s.n, s.m, 300)
		rng := rand.New(rand.NewSource(s.seed))
		fmt.Fprintf(&b, "== N=%d M=%d seed=%d\n", s.n, s.m, s.seed)
		dumpLayout(&b, c)
		sawLastMember := false
		for k := 0; k < s.steps; k++ {
			var step string
			if k < len(s.prefix) {
				step = s.prefix[k]
			} else {
				step = nextStep(rng, c.MDSIDs(), s.n)
			}
			fmt.Fprintf(&b, "step %d: %s\n", k+1, applyStep(t, c, step))
			dumpLayout(&b, c)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("N=%d M=%d step %d (%s): %v", s.n, s.m, k+1, step, err)
			}
			sawLastMember = sawLastMember || lastMemberGroup(c)
		}
		if len(s.prefix) > 0 && s.m > 1 && !sawLastMember {
			t.Errorf("N=%d M=%d: scripted schedule never left a group with one member", s.n, s.m)
		}
	}

	golden := filepath.Join("testdata", "layouts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("layouts.golden line %d:\n  got  %s\n  want %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("layouts.golden: got %d lines, want %d", len(got), len(wantLines))
	}
}

// lastMemberGroup reports whether some group of a multi-group cluster is down
// to one member.
func lastMemberGroup(c *Cluster) bool {
	groups := c.Layout().Groups()
	for _, g := range groups {
		if len(groups) > 1 && len(g.Members) == 1 {
			return true
		}
	}
	return false
}
