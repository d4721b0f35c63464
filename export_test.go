package ghba

import "ghba/internal/group"

// StartPrototypeObservingEach is StartPrototype with an L1 observation batch
// of one: every confirmed lookup is multicast at once, matching the
// simulation's per-lookup L1 learning. The cross-backend equivalence tests
// rely on it.
func StartPrototypeObservingEach(cfg PrototypeConfig) (*Prototype, error) {
	return startPrototype(cfg, 1)
}

// Layout exposes each backend's group layout to the external tests that
// compare the two (backend_equivalence_test.go); the facade itself offers
// NumGroups and nothing finer.

func (s *Simulation) Layout() group.Layout { return s.cluster.Layout() }

func (p *Prototype) Layout() group.Layout { return p.cluster.Layout() }
