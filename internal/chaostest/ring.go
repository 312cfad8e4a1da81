package chaostest

import "wls/internal/servlet"

// ringWorkload asserts the partitioning layer's convergence invariants
// while the session workload, whose secondaries the rings place, carries
// the no-session-lost-across-rebalance check. It injects no load
// of its own: it watches every managed server's Views and demands that,
// once the cluster heals, all survivors agree on one ring that names
// exactly the live managed servers, and that a membership change the
// faults caused moved the epoch (the ring tracks membership).
type ringWorkload struct {
	epoch0   map[string]uint64
	topology bool // an unfaulted server's view lost a managed server
}

func newRingWorkload() *ringWorkload { return &ringWorkload{epoch0: map[string]uint64{}} }

func (w *ringWorkload) Name() string { return "ring" }

func (w *ringWorkload) Setup(h *Harness) error {
	for _, s := range h.Cluster.Servers {
		w.epoch0[s.Name] = s.Partitions().Current().Epoch
	}
	return nil
}

func (w *ringWorkload) OnFault(*Harness, Step) {}

func (w *ringWorkload) Step(*Harness) {}

// Check notes whether a membership change took hold: a crash shorter than
// the failure timeout, or a restart, leaves every view as it was.
func (w *ringWorkload) Check(h *Harness) {
	for _, s := range h.Cluster.Servers {
		if !h.State.Faulted(s.Name) && len(s.Member().OffersOf(servlet.ServiceName)) < len(h.Cluster.Servers) {
			w.topology = true
		}
	}
}

// Settled reports ring convergence across the servers that are currently
// up: every live server's ring carries the same fingerprint and exactly
// the live managed-server set. The harness keeps advancing the healed
// cluster until this holds.
func (w *ringWorkload) Settled(h *Harness) bool {
	live := 0
	for _, s := range h.Cluster.Servers {
		if !h.State.Down[s.Name] {
			live++
		}
	}
	var fp uint64
	first := true
	for _, s := range h.Cluster.Servers {
		if h.State.Down[s.Name] {
			continue
		}
		v := s.Partitions().Current()
		if v.Ring.Len() != live {
			return false
		}
		if first {
			fp, first = v.Ring.Fingerprint(), false
		} else if v.Ring.Fingerprint() != fp {
			return false
		}
	}
	return true
}

func (w *ringWorkload) Quiesce(h *Harness) {
	if !w.Settled(h) {
		h.Violatef("ring: views did not converge after healing")
		return
	}
	if !w.topology {
		return // no view lost a server: epochs may legally sit still
	}
	// A crashed-then-restarted server can itself come back to an identical
	// member set (no bump), but a departure some view saw must have moved
	// the epoch somewhere among the survivors.
	bumped := 0
	for _, s := range h.Cluster.Servers {
		if h.State.Down[s.Name] {
			continue
		}
		if v := s.Partitions().Current(); v.Epoch > w.epoch0[s.Name] {
			bumped++
		}
	}
	if bumped == 0 {
		h.Violatef("ring: no server saw an epoch change despite crash/restart faults")
	}
}

func (w *ringWorkload) Close() {}
