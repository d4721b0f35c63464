package trace

// take returns g's next n records as a slice.
func take(g *Generator, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
