package trace

// MeasuredStats accumulates the observed operation mix of a generated
// stream, the measured counterpart to the analytic ScaledStats: Tables 3/4
// print it, and tests use it to verify that the generator produces the mix
// the profile promises.
type MeasuredStats struct {
	ops   map[OpType]uint64
	total uint64
}

// NewMeasuredStats returns an empty accumulator.
func NewMeasuredStats() *MeasuredStats {
	return &MeasuredStats{ops: make(map[OpType]uint64)}
}

// Observe folds one record into the statistics.
func (m *MeasuredStats) Observe(r Record) {
	m.ops[r.Op]++
	m.total++
}

// OpFraction returns the observed share of one operation type.
func (m *MeasuredStats) OpFraction(op OpType) float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.ops[op]) / float64(m.total)
}
