package singleton

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"wls/internal/cluster"
	"wls/internal/lease"
	"wls/internal/rmi"
	"wls/internal/vclock"
)

// OnDemand manages a family of on-demand singleton instances keyed by
// string (user profiles, shared conversations, consistently-cached
// entities — §3.4). Instances activate on the server that first uses them
// and can be migrated by passivating there and using them elsewhere.
type OnDemand struct {
	family   string
	server   string
	clock    vclock.Clock
	node     rmi.Node
	managers []string
	factory  func(key string) Activatable

	mu     sync.Mutex
	active map[string]*odEntry
}

type odEntry struct {
	holder *lease.Holder
	impl   Activatable
}

// NewOnDemand creates the manager for one family of instances. factory
// builds the instance implementation when a key activates locally.
//
//wls:nolint unreached -- library-only: §3.4, TestOnDemandMigratesAfterPassivate
func NewOnDemand(family, server string, clock vclock.Clock, node rmi.Node, factory func(key string) Activatable, managerAddrs ...string) *OnDemand {
	return &OnDemand{
		family:   family,
		server:   server,
		clock:    clock,
		node:     node,
		managers: managerAddrs,
		factory:  factory,
		active:   make(map[string]*odEntry),
	}
}

func (o *OnDemand) leaseKey(key string) string {
	return "od/" + o.family + "/" + key
}

// Placement is the result of Use: where the instance lives.
type Placement struct {
	// Local reports whether the instance is active on this server.
	Local bool
	// Owner is the owning server's name (self when Local).
	Owner string
	// Epoch is the instance's fencing epoch.
	Epoch uint64
}

// Use ensures the instance for key is active somewhere, preferring this
// server ("it may be activated on, or migrated to, the server where it is
// going to be used"). If another server holds it, the placement names that
// owner for remote access.
func (o *OnDemand) Use(ctx context.Context, key string) (Placement, error) {
	o.mu.Lock()
	if e, ok := o.active[key]; ok && e.holder.Held() {
		p := Placement{Local: true, Owner: o.server, Epoch: e.holder.Epoch()}
		o.mu.Unlock()
		return p, nil
	}
	o.mu.Unlock()

	h := lease.NewHolder(o.clock, o.node, o.leaseKey(key), o.server, lease.Pull, o.managers...)
	err := h.Acquire(ctx)
	if err == nil {
		impl := o.factory(key)
		if aerr := impl.Activate(h.Epoch()); aerr != nil {
			rctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = h.Release(rctx)
			cancel()
			return Placement{}, aerr
		}
		entry := &odEntry{holder: h, impl: impl}
		h.OnLost(func() {
			o.mu.Lock()
			if o.active[key] == entry {
				delete(o.active, key)
			}
			o.mu.Unlock()
			impl.Deactivate()
		})
		o.mu.Lock()
		o.active[key] = entry
		o.mu.Unlock()
		return Placement{Local: true, Owner: o.server, Epoch: h.Epoch()}, nil
	}

	// Someone else owns it: find out who and access remotely.
	owner, epoch, qerr := lease.QueryOwner(ctx, o.node, o.leaseKey(key), o.managers...)
	if qerr != nil {
		return Placement{}, fmt.Errorf("singleton: cannot locate %s/%s: %v (acquire: %v)", o.family, key, qerr, err)
	}
	if owner == "" {
		// Raced: the lease freed between our attempts. Caller retries.
		return Placement{}, fmt.Errorf("singleton: %s/%s placement raced, retry", o.family, key)
	}
	return Placement{Local: false, Owner: owner, Epoch: epoch}, nil
}

// Passivate deactivates a locally active instance and releases its lease,
// allowing it to migrate to "the server where it is going to be used".
func (o *OnDemand) Passivate(ctx context.Context, key string) error {
	o.mu.Lock()
	e, ok := o.active[key]
	delete(o.active, key)
	o.mu.Unlock()
	if !ok {
		return nil
	}
	e.impl.Deactivate()
	return e.holder.Release(ctx)
}

// ActiveKeys lists the locally active instance keys.
func (o *OnDemand) ActiveKeys() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.active))
	for k, e := range o.active {
		if e.holder.Held() {
			out = append(out, k)
		}
	}
	return out
}

// Stop passivates every local instance.
func (o *OnDemand) Stop() {
	for _, k := range o.ActiveKeys() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = o.Passivate(ctx, k)
		cancel()
	}
}

// ---------------------------------------------------------------------------
// Partitioning and aggregation (§3.4)

// PartitionSet describes a large singleton "partitioned ... into multiple
// instances, each of which handles a different slice of the backend data".
// Each partition is an independent continuous singleton whose preferred
// server list is rotated so the slices spread across the cluster.
//
//wls:nolint unreached -- library-only: §3.4, TestPartitionSetSpreadsAndRoutesStably
type PartitionSet struct {
	// Service is the base service name.
	Service string
	// N is the number of partitions.
	N int
	// Candidates are the servers that may host partitions.
	Candidates []string
}

// PartitionService names the i'th partition's singleton service.
func (p PartitionSet) PartitionService(i int) string {
	return fmt.Sprintf("%s#%d", p.Service, i)
}

// PreferredFor returns the rotated preferred-server list for partition i,
// so partition i lands on Candidates[i mod len] while it is alive.
func (p PartitionSet) PreferredFor(i int) []string {
	n := len(p.Candidates)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, p.Candidates[(i+j)%n])
	}
	return out
}

// PartitionOf maps a data key (message producer, consumer, user ID — §3.4
// suggests all three) to its partition.
//
//wls:nolint unreached -- library-only: §3.4, TestPartitionSetSpreadsAndRoutesStably
func (p PartitionSet) PartitionOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(p.N))
}

// HostsFor builds this server's Host candidacies for every partition. impl
// is called with the partition index to build each partition's service.
//
//wls:nolint unreached -- library-only: §3.4, TestPartitionedHostsActivateEachPartitionOnce
func (p PartitionSet) HostsFor(member *cluster.Member, registry *rmi.Registry, impl func(partition int) Activatable, managerAddrs ...string) []*Host {
	hosts := make([]*Host, 0, p.N)
	for i := 0; i < p.N; i++ {
		cfg := Config{
			Service:   p.PartitionService(i),
			Preferred: p.PreferredFor(i),
		}
		hosts = append(hosts, NewHost(cfg, member, registry, impl(i), managerAddrs...))
	}
	return hosts
}
