package bloom

import "math"

// optimalBase is 0.6185 in the paper: the minimum false-positive rate of a
// standard Bloom filter with optimal k is f0 = (1/2)^k ≈ 0.6185^(m/n).
const optimalBase = 0.6185

// FalsePositiveRate returns the classical approximation of the false-positive
// probability of a Bloom filter with m bits, n inserted items, and k hash
// functions: (1 − e^(−kn/m))^k.
func FalsePositiveRate(m, n uint64, k uint32) float64 {
	if n == 0 {
		return 0
	}
	if m == 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// SegmentFalsePositive evaluates Equation 1 of the paper: the probability
// that a segment Bloom filter array holding theta replicas returns a unique
// but wrong hit,
//
//	f⁺g = θ · f0 · (1 − f0)^(θ−1),  f0 = 0.6185^(m/n),
//
// i.e. exactly one of the θ filters fires falsely. theta is the number of
// replicas stored locally on one MDS and bitsPerItem the filter ratio m/n.
func SegmentFalsePositive(theta int, bitsPerItem float64) float64 {
	if theta <= 0 {
		return 0
	}
	f0 := math.Pow(optimalBase, bitsPerItem)
	return float64(theta) * f0 * math.Pow(1-f0, float64(theta-1))
}
