package bloomarray

import (
	"testing"
	"testing/quick"
)

func TestIDBFAValidation(t *testing.T) {
	if _, err := NewIDBFA(0, 4); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := NewIDBFA(64, 0); err == nil {
		t.Error("zero hashes accepted")
	}
}

func TestIDBFAMembers(t *testing.T) {
	a := NewDefaultIDBFA()
	if err := a.AddMember(2); err != nil {
		t.Fatal(err)
	}
	if err := a.AddMember(1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddMember(2); err == nil {
		t.Error("duplicate member accepted")
	}
	if !a.HasMember(1) || a.HasMember(9) {
		t.Error("HasMember inconsistent")
	}
	ids := a.Members()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("Members = %v, want [1 2]", ids)
	}
	a.RemoveMember(1)
	if a.HasMember(1) {
		t.Error("RemoveMember failed")
	}
}

func TestIDBFAGrantLocateRevoke(t *testing.T) {
	a := NewDefaultIDBFA()
	for _, m := range []int{10, 11, 12} {
		if err := a.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	// Member 11 holds replica of origin 77.
	if err := a.Grant(11, 77); err != nil {
		t.Fatal(err)
	}
	holders := a.Locate(77)
	if len(holders) != 1 || holders[0] != 11 {
		t.Fatalf("Locate(77) = %v, want [11]", holders)
	}
	// Migrate: revoke on 11, grant on 12.
	if err := a.Revoke(11, 77); err != nil {
		t.Fatal(err)
	}
	if err := a.Grant(12, 77); err != nil {
		t.Fatal(err)
	}
	holders = a.Locate(77)
	if len(holders) != 1 || holders[0] != 12 {
		t.Fatalf("Locate(77) after migration = %v, want [12]", holders)
	}
}

func TestIDBFAUnknownMemberErrors(t *testing.T) {
	a := NewDefaultIDBFA()
	if err := a.Grant(1, 5); err == nil {
		t.Error("grant to unknown member succeeded")
	}
	if err := a.Revoke(1, 5); err == nil {
		t.Error("revoke from unknown member succeeded")
	}
}

func TestIDBFALocateEmpty(t *testing.T) {
	a := NewDefaultIDBFA()
	if err := a.AddMember(1); err != nil {
		t.Fatal(err)
	}
	if hits := a.Locate(42); len(hits) != 0 {
		t.Errorf("Locate on empty filters = %v, want none", hits)
	}
}

func TestIDBFAMigrationProperty(t *testing.T) {
	// Property: after any sequence of grant/migrate operations, each origin
	// is located at exactly the member that last received it.
	err := quick.Check(func(moves []uint8) bool {
		a := NewDefaultIDBFA()
		members := []int{0, 1, 2, 3}
		for _, m := range members {
			if err := a.AddMember(m); err != nil {
				return false
			}
		}
		const origin = 500
		cur := 0
		if err := a.Grant(cur, origin); err != nil {
			return false
		}
		for _, mv := range moves {
			next := int(mv) % len(members)
			if next == cur {
				continue
			}
			if err := a.Revoke(cur, origin); err != nil {
				return false
			}
			if err := a.Grant(next, origin); err != nil {
				return false
			}
			cur = next
		}
		holders := a.Locate(origin)
		return len(holders) == 1 && holders[0] == cur
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Errorf("migration property violated: %v", err)
	}
}

func TestIDBFASizeBytes(t *testing.T) {
	a := NewDefaultIDBFA()
	if a.SizeBytes() != 0 {
		t.Error("empty IDBFA non-zero size")
	}
	if err := a.AddMember(1); err != nil {
		t.Fatal(err)
	}
	if a.SizeBytes() != DefaultIDBFABits {
		t.Errorf("SizeBytes = %d, want %d", a.SizeBytes(), DefaultIDBFABits)
	}
	// Paper's claim: at N=100 the IDBFA is under 0.1 KB per member filter —
	// with default geometry a whole 15-member group stays under 8 KB.
	for i := 2; i <= 15; i++ {
		if err := a.AddMember(i); err != nil {
			t.Fatal(err)
		}
	}
	if a.SizeBytes() > 8*1024 {
		t.Errorf("15-member IDBFA = %d bytes, want small", a.SizeBytes())
	}
}
