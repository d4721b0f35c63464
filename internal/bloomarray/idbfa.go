package bloomarray

import (
	"fmt"
	"slices"
	"strconv"

	"ghba/internal/bloom"
)

// IDBFA is the identification Bloom filter array of Section 2.4: every MDS
// in a group keeps one counting filter per group member, each recording the
// origin-MDS IDs of the replicas that member currently stores. Locating the
// holder of MDS j's replica is a membership query for "j" across the member
// filters; counting filters make revocation cheap when replicas migrate
// during reconfiguration.
//
// The array is tiny — the paper notes under 0.1 KB per MDS at N=100 — so it
// is always memory resident and cheap to multicast after changes.
type IDBFA struct {
	perMemberBits uint64
	hashes        uint32
	members       map[int]*bloom.CountingFilter
}

// DefaultIDBFABits is the size of one member's ID filter. Origin IDs are a
// few bytes, the population per filter is θ ≈ N/M, so 512 bits keeps the
// false-positive rate negligible at the scales the paper evaluates (N ≤ 200).
const DefaultIDBFABits = 512

// DefaultIDBFAHashes is the hash count for member ID filters.
const DefaultIDBFAHashes = 4

// NewIDBFA returns an empty IDBFA with the given per-member filter geometry.
func NewIDBFA(perMemberBits uint64, hashes uint32) (*IDBFA, error) {
	if perMemberBits == 0 || hashes == 0 {
		return nil, fmt.Errorf("%w: bits=%d hashes=%d",
			bloom.ErrInvalidGeometry, perMemberBits, hashes)
	}
	return &IDBFA{
		perMemberBits: perMemberBits,
		hashes:        hashes,
		members:       make(map[int]*bloom.CountingFilter),
	}, nil
}

// NewDefaultIDBFA returns an IDBFA with the default geometry.
func NewDefaultIDBFA() *IDBFA {
	a, err := NewIDBFA(DefaultIDBFABits, DefaultIDBFAHashes)
	if err != nil {
		panic(fmt.Sprintf("bloomarray: default IDBFA geometry invalid: %v", err))
	}
	return a
}

// originKey is the membership key for an origin MDS ID.
func originKey(originID int) []byte {
	return strconv.AppendInt(nil, int64(originID), 10)
}

// AddMember registers a group member with an empty ID filter. Adding an
// existing member is an error: it would silently discard grant history.
func (a *IDBFA) AddMember(memberID int) error {
	if _, ok := a.members[memberID]; ok {
		return fmt.Errorf("bloomarray: member %d already in IDBFA", memberID)
	}
	cf, err := bloom.NewCounting(a.perMemberBits, a.hashes)
	if err != nil {
		return fmt.Errorf("bloomarray: creating ID filter: %w", err)
	}
	a.members[memberID] = cf
	return nil
}

// RemoveMember drops a member and its filter, used on MDS departure.
func (a *IDBFA) RemoveMember(memberID int) {
	delete(a.members, memberID)
}

// HasMember reports whether the member is registered.
func (a *IDBFA) HasMember(memberID int) bool {
	_, ok := a.members[memberID]
	return ok
}

// Members returns all registered member IDs in ascending order.
func (a *IDBFA) Members() []int {
	ids := make([]int, 0, len(a.members))
	for id := range a.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Grant records that member now stores the replica originating at origin.
func (a *IDBFA) Grant(memberID, originID int) error {
	cf, ok := a.members[memberID]
	if !ok {
		return fmt.Errorf("bloomarray: grant to unknown member %d", memberID)
	}
	cf.Add(originKey(originID))
	return nil
}

// Revoke records that member no longer stores origin's replica.
func (a *IDBFA) Revoke(memberID, originID int) error {
	cf, ok := a.members[memberID]
	if !ok {
		return fmt.Errorf("bloomarray: revoke from unknown member %d", memberID)
	}
	cf.Remove(originKey(originID))
	return nil
}

// Locate returns the members that may hold origin's replica, ascending. A
// single entry is the normal case; multiple entries are the light false-
// positive penalty the paper describes — the falsely identified member
// simply drops the request after failing to find the replica.
func (a *IDBFA) Locate(originID int) []int {
	var scratch [originKeyBuf]byte
	d := bloom.NewDigest(strconv.AppendInt(scratch[:0], int64(originID), 10))
	return a.LocateDigest(&d, nil)
}

// originKeyBuf comfortably holds the decimal digits of any int origin ID.
const originKeyBuf = 24

// LocateDigest is Locate for a pre-hashed origin key, appending hits into
// buf (which may be nil): the member filters all share one geometry, so the
// digest's probe positions are derived once and each member costs k counter
// loads. With a reused buffer the probe does not allocate.
func (a *IDBFA) LocateDigest(d *bloom.Digest, buf []int) []int {
	hits := buf[:0]
	for id, cf := range a.members {
		if cf.ContainsDigest(d) {
			hits = append(hits, id)
		}
	}
	slices.Sort(hits)
	return hits
}

// SizeBytes returns the total footprint of all member filters.
func (a *IDBFA) SizeBytes() uint64 {
	var total uint64
	for _, cf := range a.members {
		total += cf.SizeBytes()
	}
	return total
}
