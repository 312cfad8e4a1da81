package lease

import (
	"context"
	"errors"
	"testing"
	"time"

	"wls/internal/rmi"
	"wls/internal/simtest"
	"wls/internal/store"
	"wls/internal/wire"
)

// hookNode passes calls through, except that the call made while during
// is set runs during first (with during cleared) and then fails with fail,
// or goes through when fail is nil.
type hookNode struct {
	rmi.Node
	during func()
	fail   error
}

func (n *hookNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	if during := n.during; during != nil {
		n.during = nil
		during()
		if n.fail != nil {
			return wire.Frame{}, n.fail
		}
	}
	return n.Node.Call(ctx, to, f)
}

// TestHolderRenewalRetiredByRelease plays a renewal whose RPC was out when
// Release landed, as TestForwarderStopQuiescesInFlightDrain plays a drain:
// while it waits, the lease is released and acquired again. Whether its
// RPC then fails past the old lease's deadline or renews the new lease, it
// must neither replace the new grant nor report it lost.
func TestHolderRenewalRetiredByRelease(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail error
		gap  time.Duration // clock moved between Release and Acquire
	}{
		{name: "fails past the old deadline", fail: errors.New("link cut"), gap: 1500 * time.Millisecond},
		{name: "renews the next lease", gap: 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := simtest.New(simtest.Options{Servers: 2})
			defer f.Stop()
			mgr := NewManager(f.Clock, AlwaysLeader(), store.New("leasedb", f.Clock), time.Second)
			f.Servers[0].Registry.Register(mgr.RMIService())
			f.Settle(2)

			node := &hookNode{Node: f.Servers[1].Endpoint}
			h := NewHolder(f.Clock, node, "q", "server-2", Pull, f.Servers[0].Endpoint.Addr())
			lost := 0
			h.OnLost(func() { lost++ })
			if err := h.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			epoch := h.renewals.Start(0) // started: only reports the epoch
			var want Grant
			node.fail = tc.fail
			node.during = func() {
				if err := h.Release(context.Background()); err != nil {
					t.Fatal(err)
				}
				f.VClock.Advance(tc.gap)
				if err := h.Acquire(context.Background()); err != nil {
					t.Fatal(err)
				}
				want = h.Grant()
				f.VClock.Advance(100 * time.Millisecond) // a renewal now moves Expires
			}
			h.renewOnce(epoch)
			defer h.Stop()

			if got := h.Grant(); got != want {
				t.Errorf("a retired renewal replaced the grant: %+v, want %+v", got, want)
			}
			if lost != 0 || !h.Held() {
				t.Errorf("a retired renewal reported the next lease lost (lost %d, held %v)", lost, h.Held())
			}
		})
	}
}
