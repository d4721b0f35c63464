package ghba

import "ghba/internal/group"

// Layout exposes each backend's group layout to the external tests that
// compare the two (backend_equivalence_test.go); the facade itself offers
// NumGroups and nothing finer.

func (s *Simulation) Layout() group.Layout { return s.cluster.Layout() }

func (p *Prototype) Layout() group.Layout { return p.cluster.Layout() }
