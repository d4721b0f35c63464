package trace

import (
	"fmt"
	"math"
)

// BaseStats carries the per-trace statistics published in the paper at
// TIF=1 (derived by dividing the Table 3/4 values by their TIF). Fields that
// a given trace does not report are zero.
type BaseStats struct {
	// Hosts and Users are the machine and user populations (RES/INS).
	Hosts int
	Users int
	// OpenM, CloseM and StatM are millions of operations (RES/INS).
	OpenM  float64
	CloseM float64
	StatM  float64
	// RequestsM is millions of total requests (HP).
	RequestsM float64
	// ActiveUsers and UserAccounts describe the HP population.
	ActiveUsers  int
	UserAccounts int
	// ActiveFilesM and TotalFilesM are millions of files (HP).
	ActiveFilesM float64
	TotalFilesM  float64
}

// Profile describes one workload family and its generator parameters.
type Profile struct {
	// Name is "HP", "RES" or "INS".
	Name string
	// Base holds the published TIF=1 statistics.
	Base BaseStats
	// PaperTIF is the intensification factor the paper evaluates the trace
	// at (Tables 3–4): HP=40, RES=100, INS=30.
	PaperTIF int
	// weights is the op mix (open, close, stat, create, delete), summing
	// to 1.
	weights [5]float64
	// ZipfS is the Zipf skew parameter for file popularity (>1).
	ZipfS float64
	// RepeatProb is the probability an access re-references the recent
	// working set instead of drawing a fresh file — the temporal-locality
	// knob that feeds the L1 arrays.
	RepeatProb float64
	// WorkingSet is the size of the re-reference window, in files.
	WorkingSet int
}

// mix builds a normalized weight vector from open/close/stat counts, carving
// out small create/delete fractions so the stream exercises Bloom-filter
// mutation (replica-update traffic needs it).
func mix(open, close, stat float64) [5]float64 {
	const createFrac, deleteFrac = 0.006, 0.004
	total := open + close + stat
	scale := (1 - createFrac - deleteFrac) / total
	return [5]float64{open * scale, close * scale, stat * scale, createFrac, deleteFrac}
}

// HP returns the HP file-system trace profile (Riedel et al., 10 days, 500
// GB; Table 4). The published table does not break requests down by
// operation, so the mix follows the stat-heavy metadata profile reported for
// workstation traces in Roselli et al., which the paper cites for the claim
// that metadata transactions exceed 50% of operations.
func HP() Profile {
	return Profile{
		Name: "HP",
		Base: BaseStats{
			RequestsM:    94.7,
			ActiveUsers:  32,
			UserAccounts: 207,
			ActiveFilesM: 0.969,
			TotalFilesM:  4.0,
		},
		PaperTIF:   40,
		weights:    mix(25, 22, 53),
		ZipfS:      1.15,
		RepeatProb: 0.65,
		WorkingSet: 4096,
	}
}

// RES returns the Research Workload profile (Roselli et al.; Table 3,
// TIF=100): open 4.972M, close 5.582M, stat 79.839M at base intensity — a
// heavily stat-dominated stream.
func RES() Profile {
	return Profile{
		Name: "RES",
		Base: BaseStats{
			Hosts:  13,
			Users:  50,
			OpenM:  4.972,
			CloseM: 5.582,
			StatM:  79.839,
		},
		PaperTIF:   100,
		weights:    mix(4.972, 5.582, 79.839),
		ZipfS:      1.25,
		RepeatProb: 0.7,
		WorkingSet: 2048,
	}
}

// INS returns the Instructional Workload profile (Roselli et al.; Table 3,
// TIF=30): open 39.879M, close 40.511M, stat 135.886M at base intensity.
func INS() Profile {
	return Profile{
		Name: "INS",
		Base: BaseStats{
			Hosts:  19,
			Users:  326,
			OpenM:  39.879,
			CloseM: 40.511,
			StatM:  135.886,
		},
		PaperTIF:   30,
		weights:    mix(39.879, 40.511, 135.886),
		ZipfS:      1.1,
		RepeatProb: 0.6,
		WorkingSet: 8192,
	}
}

// Profiles returns the three workload families in the order the paper
// charts them.
func Profiles() []Profile {
	return []Profile{HP(), RES(), INS()}
}

// MixProfile builds a synthetic profile with an explicit
// lookup:create:delete operation ratio — the mutation-heavy mixes the
// replay benchmark sweeps, where the published traces' sub-1% mutation
// share would leave the write path idle. Lookups are emitted as stats (all
// non-mutating operations traverse the same query hierarchy); locality
// parameters match the HP profile so L1 behaviour stays comparable.
func MixProfile(lookup, create, del float64) (Profile, error) {
	// A NaN weight, or one whose sum is infinite, would normalize to NaN or
	// zero shares, and the op draw would fall through to an all-lookup mix.
	total := lookup + create + del
	if !(lookup >= 0 && create >= 0 && del >= 0) || math.IsInf(total, 0) {
		return Profile{}, fmt.Errorf("trace: mix weights %v:%v:%v must be finite and ≥ 0", lookup, create, del)
	}
	if total == 0 {
		return Profile{}, fmt.Errorf("trace: empty mix")
	}
	return Profile{
		Name:       "MIX",
		PaperTIF:   1,
		weights:    [5]float64{0, 0, lookup / total, create / total, del / total},
		ZipfS:      1.15,
		RepeatProb: 0.65,
		WorkingSet: 4096,
	}, nil
}

// MustMixProfile is MixProfile for literal weights; it panics on invalid
// input.
func MustMixProfile(lookup, create, del float64) Profile {
	p, err := MixProfile(lookup, create, del)
	if err != nil {
		panic(err)
	}
	return p
}

// ProfileByName looks a profile up by its name (case sensitive).
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
}

// ScaledStats is one trace's statistics after TIF intensification. Spatial
// scale-up multiplies populations; temporal scale-up multiplies operation
// volume — both by TIF, because the merged trace is TIF disjoint sub-traces
// replayed concurrently.
type ScaledStats struct {
	Name         string
	TIF          int
	Hosts        int
	Users        int
	OpenM        float64
	CloseM       float64
	StatM        float64
	RequestsM    float64
	ActiveUsers  int
	UserAccounts int
	ActiveFilesM float64
	TotalFilesM  float64
}

// Scaled returns the profile's statistics at the given TIF. With the
// paper's TIF values this reproduces Tables 3 and 4 exactly.
func (p Profile) Scaled(tif int) ScaledStats {
	if tif < 1 {
		tif = 1
	}
	f := float64(tif)
	return ScaledStats{
		Name:         p.Name,
		TIF:          tif,
		Hosts:        p.Base.Hosts * tif,
		Users:        p.Base.Users * tif,
		OpenM:        p.Base.OpenM * f,
		CloseM:       p.Base.CloseM * f,
		StatM:        p.Base.StatM * f,
		RequestsM:    p.Base.RequestsM * f,
		ActiveUsers:  p.Base.ActiveUsers * tif,
		UserAccounts: p.Base.UserAccounts * tif,
		ActiveFilesM: p.Base.ActiveFilesM * f,
		TotalFilesM:  p.Base.TotalFilesM * f,
	}
}
