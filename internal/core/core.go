// Package core ties the substrates together into the paper's central
// abstraction: the four types of clustered services of §3 — stateless,
// conversational, cached, and singleton — "that differ in the way they
// manage state in memory and on disk", deployed into an application server
// that composes clustering, RMI, transactions, the EJB container, the
// servlet engine, messaging, Web Services, and the middle-tier persistence
// layer.
//
// It also carries MigratableTarget (§3.4): "services may be deployed into
// named targets, each of which is migrated as a unit so that service
// co-location can be maintained". The §2.3 execute queue is rmi.Gate: the
// registry admits each request on the goroutine that delivered it.
package core

import (
	"fmt"

	"wls/internal/singleton"
)

// ServiceKind classifies a clustered service by how it manages state (§3).
type ServiceKind int

// The four types of clustered services.
const (
	// Stateless services keep no state between invocations; scalability
	// and availability come from deploying instances everywhere (§3.1).
	Stateless ServiceKind = iota
	// Conversational services are earmarked for one client's session and
	// keep its state in memory, replicated primary/secondary (§3.2).
	Conversational
	// Cached services keep shared data in memory to satisfy reads, with
	// configurable consistency against the backend (§3.3).
	Cached
	// Singleton services are active on at most/exactly one server and own
	// private persistent data (§3.4).
	Singleton
)

func (k ServiceKind) String() string {
	switch k {
	case Stateless:
		return "stateless"
	case Conversational:
		return "conversational"
	case Cached:
		return "cached"
	case Singleton:
		return "singleton"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ---------------------------------------------------------------------------
// Migratable targets (§3.4)

// MigratableTarget groups services that must live together; the group
// activates and deactivates as a unit on whichever server owns its lease.
type MigratableTarget struct {
	Name     string
	services []namedService
}

type namedService struct {
	name string
	impl singleton.Activatable
}

// NewMigratableTarget creates an empty target.
func NewMigratableTarget(name string) *MigratableTarget {
	return &MigratableTarget{Name: name}
}

// Add places a service in the target. Order matters: activation runs in
// Add order, deactivation in reverse.
func (t *MigratableTarget) Add(name string, impl singleton.Activatable) *MigratableTarget {
	t.services = append(t.services, namedService{name, impl})
	return t
}

// Services lists the co-located service names.
func (t *MigratableTarget) Services() []string {
	out := make([]string, 0, len(t.services))
	for _, s := range t.services {
		out = append(out, s.name)
	}
	return out
}

// Activate implements singleton.Activatable for the whole unit: all
// services activate or none do.
func (t *MigratableTarget) Activate(epoch uint64) error {
	for i, s := range t.services {
		if err := s.impl.Activate(epoch); err != nil {
			for j := i - 1; j >= 0; j-- {
				t.services[j].impl.Deactivate()
			}
			return fmt.Errorf("core: target %s: service %s: %w", t.Name, s.name, err)
		}
	}
	return nil
}

// Deactivate implements singleton.Activatable.
func (t *MigratableTarget) Deactivate() {
	for i := len(t.services) - 1; i >= 0; i-- {
		t.services[i].impl.Deactivate()
	}
}
