// Package cluster implements cluster membership for the application server:
// the group of servers that "coordinate their actions to provide scalable,
// highly-available services" (§2.1 of the paper).
//
// Each member periodically announces a heartbeat on the gossip bus carrying
// its identity, incarnation number, and the list of services it is actively
// offering — this is the "lightweight multicast protocol" of §3.1 that RMI
// stubs rely on for load balancing and failover information. Every member
// maintains a view of its peers and declares a peer failed when heartbeats
// stop arriving for a configurable timeout.
//
// Joining is event-driven: a member that hears a heartbeat it records as a
// join answers with its own, so a server that starts after its peers has
// the whole view one announcement round trip after Start — not one
// HeartbeatInterval later. The periodic beat is for liveness and for
// repairing lost datagrams. See onHeartbeat.
//
// The package also implements:
//
//   - replication groups and the §3.2 rule that picks where a server's
//     secondaries live ("organizes the candidates into a logical ring and
//     looks for the first one in the desired replication group that is on a
//     different machine"), in placement.go;
//   - member join/fail listeners, used by the singleton master and the
//     session replication machinery;
//   - the node-manager pattern of §3.4 (detect a failed server and restart
//     it after a delay).
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"wls/internal/gossip"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// Config controls heartbeat cadence and failure detection for one cluster.
type Config struct {
	// Name identifies the cluster; all bus topics are scoped by it so
	// multiple clusters can share one fabric (a WebLogic domain may contain
	// several clusters, §4).
	Name string
	// HeartbeatInterval is how often each member announces itself.
	HeartbeatInterval time.Duration
	// FailureTimeout is how long after the last heartbeat a peer is
	// declared failed. Should be a small multiple of HeartbeatInterval.
	FailureTimeout time.Duration
	// IDSeed, when nonzero, makes the record ids NewID draws a reproducible
	// stream seeded from it (virtual-clock clusters, so seeded runs replay);
	// members sharing a seed draw the same ids, so each needs its own. Zero,
	// the default, draws them from crypto/rand.
	IDSeed int64
}

func (c *Config) fillDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.FailureTimeout <= 0 {
		c.FailureTimeout = 3*c.HeartbeatInterval + c.HeartbeatInterval/2
	}
}

// MemberInfo describes one server as seen through the membership view.
type MemberInfo struct {
	// Name is the unique server name within the domain.
	Name string
	// Addr is the transport address RMI traffic should use.
	Addr string
	// Machine identifies the physical machine hosting the server; secondary
	// placement (Picker) puts a replica on the primary's machine only when
	// no other machine has a candidate.
	Machine string
	// ReplicationGroup is the named group this server belongs to (§3.2).
	ReplicationGroup string
	// PreferredSecondaryGroups lists replication groups, most preferred
	// first, that should host this server's secondaries.
	PreferredSecondaryGroups []string
	// Services is the set of service names this server currently offers.
	Services []string
	// Incarnation increments each time the server restarts, letting peers
	// distinguish a restarted server from a stale heartbeat.
	Incarnation uint64
}

// clone returns a deep copy so callers can't alias internal state.
func (m MemberInfo) clone() MemberInfo {
	m.Services = append([]string(nil), m.Services...)
	m.PreferredSecondaryGroups = append([]string(nil), m.PreferredSecondaryGroups...)
	return m
}

// OffersService reports whether the member advertises the named service.
func (m MemberInfo) OffersService(name string) bool {
	for _, s := range m.Services {
		if s == name {
			return true
		}
	}
	return false
}

// encode serializes a heartbeat body.
func (m MemberInfo) encode() []byte {
	e := wire.NewEncoder(128)
	e.String(m.Name)
	e.String(m.Addr)
	e.String(m.Machine)
	e.String(m.ReplicationGroup)
	e.StringSlice(m.PreferredSecondaryGroups)
	e.StringSlice(m.Services)
	e.Uint64(m.Incarnation)
	return e.Bytes()
}

func decodeMemberInfo(b []byte) (MemberInfo, error) {
	d := wire.NewDecoder(b)
	m := MemberInfo{
		Name:                     d.String(),
		Addr:                     d.String(),
		Machine:                  d.String(),
		ReplicationGroup:         d.String(),
		PreferredSecondaryGroups: d.StringSlice(),
		Services:                 d.StringSlice(),
		Incarnation:              d.Uint64(),
	}
	return m, d.Err()
}

// Event describes a membership change delivered to listeners.
type Event struct {
	Kind   EventKind
	Member MemberInfo
}

// EventKind enumerates membership changes.
type EventKind int

// Membership event kinds.
const (
	// EventJoined fires when a member is first heard from (or heard from
	// again with a new incarnation after a failure).
	EventJoined EventKind = iota
	// EventFailed fires when a member's heartbeats time out.
	EventFailed
	// EventUpdated fires when a live member changes its service list.
	EventUpdated
)

func (k EventKind) String() string {
	switch k {
	case EventJoined:
		return "joined"
	case EventFailed:
		return "failed"
	case EventUpdated:
		return "updated"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Member is one server's participation in a cluster.
type Member struct {
	cfg   Config
	clock vclock.Clock
	bus   gossip.Bus

	mu        sync.Mutex
	self      MemberInfo
	peers     map[string]*peerState // by name, excluding self
	listeners []*func(Event)
	started   bool
	stopped   bool
	hbTimer   vclock.Timer
	sweep     vclock.Timer
	unsub     func()
	// publishing is set while a goroutine is announcing for this member;
	// republish asks it for one more heartbeat (see publish).
	publishing, republish bool

	// version counts view-visible membership changes (join, fail, service
	// advertisement). The request path consults the view on every call, so
	// OffersOf memoizes its result per version: between membership changes
	// the same shared slice is returned with no cloning or sorting.
	version     uint64
	cacheVer    uint64
	aliveCache  []MemberInfo
	offersCache map[string][]MemberInfo

	ids idSource
}

type peerState struct {
	info      MemberInfo
	lastHeard time.Time
	failed    bool
}

// NewMember creates (but does not start) a member. The MemberInfo's Name,
// Addr, Machine and replication-group fields must be populated; Services
// may be empty and extended later with Advertise.
func NewMember(cfg Config, clock vclock.Clock, bus gossip.Bus, self MemberInfo) *Member {
	cfg.fillDefaults()
	return &Member{
		cfg:   cfg,
		clock: clock,
		bus:   bus,
		self:  self.clone(),
		peers: make(map[string]*peerState),
		ids:   newIDSource(cfg.IDSeed),
	}
}

func (m *Member) topic() string { return "cluster/" + m.cfg.Name + "/hb" }

// Start begins heartbeating and failure detection.
func (m *Member) Start() {
	m.mu.Lock()
	if m.started && !m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.stopped = false
	m.self.Incarnation++
	m.version++
	m.mu.Unlock()

	// Subscribed before the first beat: the answers it draws (onHeartbeat)
	// arrive while that beat is still being delivered.
	unsub := m.bus.Subscribe(m.topic(), m.onHeartbeat)
	m.mu.Lock()
	if m.stopped { // a Stop raced this restart and found nothing to cancel
		m.mu.Unlock()
		unsub()
		return
	}
	m.unsub = unsub
	m.mu.Unlock()
	m.beat()
	m.scheduleSweep()
}

// Stop ceases heartbeating; peers will declare this member failed after the
// failure timeout.
func (m *Member) Stop() {
	m.mu.Lock()
	m.stopped = true
	hb, sw, unsub := m.hbTimer, m.sweep, m.unsub
	m.hbTimer, m.sweep, m.unsub = nil, nil, nil
	m.mu.Unlock()
	if hb != nil {
		hb.Stop()
	}
	if sw != nil {
		sw.Stop()
	}
	if unsub != nil {
		unsub()
	}
}

// Self returns a copy of this member's current advertised info.
func (m *Member) Self() MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self.clone()
}

// Name returns this member's server name without cloning the full info —
// the request path asks for the local name on every call, and Self()'s
// deep copy was a measurable per-request allocation.
func (m *Member) Name() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self.Name
}

// Clock returns the member's clock.
func (m *Member) Clock() vclock.Clock { return m.clock }

// Advertise adds a service name to this member's advertisement and beats
// at once, so deployment is visible cluster-wide without waiting an
// interval: servers already up hear this beat, and a server that starts
// later hears the service in the answer its first announcement draws from
// this member (onHeartbeat). Only a lost datagram waits for the periodic
// beat.
func (m *Member) Advertise(service string) {
	m.mu.Lock()
	if !m.self.OffersService(service) {
		m.self.Services = append(m.self.Services, service)
		sort.Strings(m.self.Services)
		m.version++
	}
	m.mu.Unlock()
	m.publish()
}

// Withdraw removes a service from this member's advertisement.
func (m *Member) Withdraw(service string) {
	m.mu.Lock()
	out := m.self.Services[:0]
	for _, s := range m.self.Services {
		if s != service {
			out = append(out, s)
		}
	}
	m.self.Services = out
	m.version++
	m.mu.Unlock()
	m.publish()
}

// OnEvent registers a listener for membership events and returns the func
// that removes it; an event already being delivered may still reach it.
// Listeners run on the bus delivery goroutine and must not block.
func (m *Member) OnEvent(fn func(Event)) (cancel func()) {
	l := &fn
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, l)
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.listeners = slices.DeleteFunc(m.listeners, func(x *func(Event)) bool { return x == l })
	}
}

// Listeners reports how many membership listeners are registered.
//
//wls:nolint unreached -- test hook: TestRestartDetachesBeanRings
func (m *Member) Listeners() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.listeners)
}

// beat publishes one heartbeat and schedules the next.
func (m *Member) beat() {
	m.publish()
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.hbTimer = m.clock.AfterFunc(m.cfg.HeartbeatInterval, m.beat)
	m.mu.Unlock()
}

// publish announces this member's current info; a member that is not
// running stays silent. One goroutine at a time announces for a member: a
// publish that arrives while another is on the bus — from another goroutine
// (Advertise racing a join answer on the UDP read loop), or nested inside
// the synchronous delivery of this member's own beat — asks the one in
// progress to go round again instead. So heartbeats leave in the order
// their contents were read, the last one out carries the latest services,
// and a joiner answers all the peers that answered it with one heartbeat.
func (m *Member) publish() {
	m.mu.Lock()
	if m.publishing {
		m.republish = true
		m.mu.Unlock()
		return
	}
	m.publishing = true
	for !m.stopped && m.started {
		m.republish = false
		body := m.self.encode()
		from := m.self.Name
		m.mu.Unlock()
		m.bus.Publish(gossip.Message{Topic: m.topic(), From: from, Payload: body})
		m.mu.Lock()
		if !m.republish {
			break
		}
	}
	m.publishing = false
	m.mu.Unlock()
}

// scheduleSweep schedules periodic failure detection.
func (m *Member) scheduleSweep() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.sweep = m.clock.AfterFunc(m.cfg.HeartbeatInterval, func() {
		m.sweepOnce()
		m.scheduleSweep()
	})
	m.mu.Unlock()
}

// sweepOnce fails peers whose heartbeats have timed out.
func (m *Member) sweepOnce() {
	now := m.clock.Now()
	var events []Event
	m.mu.Lock()
	for _, p := range m.peers {
		if !p.failed && now.Sub(p.lastHeard) > m.cfg.FailureTimeout {
			p.failed = true
			m.version++
			events = append(events, Event{Kind: EventFailed, Member: p.info.clone()})
		}
	}
	listeners := slices.Clone(m.listeners)
	m.mu.Unlock()
	for _, ev := range events {
		for _, fn := range listeners {
			(*fn)(ev)
		}
	}
}

// onHeartbeat processes a peer announcement.
//
// A heartbeat recorded as a join — a name heard for the first time, a
// failed peer heard again, or a higher incarnation — is answered with this
// member's own heartbeat, after the listeners have run and with no lock
// held. The answer is what gives a joiner its view: every running member
// hears the joiner's first beat, each answers once, and the joiner has
// heard them all (services included) before its Start returns on the
// synchronous bus, one datagram round trip later on UDP. The exchange ends
// by itself: the joiner in turn answers the peers it heard for the first
// time (with one heartbeat on the synchronous bus, see publish), and that
// answer finds the joiner already known, which is no event and draws
// nothing. EventUpdated and EventFailed draw no answer. A lost
// announcement or answer is repaired by the next periodic beat, which is
// answered the same way if it is the first one heard.
func (m *Member) onHeartbeat(msg gossip.Message) {
	info, err := decodeMemberInfo(msg.Payload)
	if err != nil {
		return
	}
	m.mu.Lock()
	if m.stopped || info.Name == m.self.Name {
		m.mu.Unlock()
		return
	}
	var events []Event
	joined := false
	p, ok := m.peers[info.Name]
	switch {
	case !ok:
		m.peers[info.Name] = &peerState{info: info, lastHeard: m.clock.Now()}
		m.version++
		joined = true
	case p.failed || info.Incarnation > p.info.Incarnation:
		p.info = info
		p.failed = false
		p.lastHeard = m.clock.Now()
		m.version++
		joined = true
	case info.Incarnation == p.info.Incarnation:
		changed := !equalStrings(p.info.Services, info.Services)
		p.info = info
		p.lastHeard = m.clock.Now()
		if changed {
			m.version++
			events = append(events, Event{Kind: EventUpdated, Member: info.clone()})
		}
	default:
		// Stale incarnation: ignore.
	}
	if joined {
		events = append(events, Event{Kind: EventJoined, Member: info.clone()})
	}
	listeners := slices.Clone(m.listeners)
	m.mu.Unlock()
	for _, ev := range events {
		for _, fn := range listeners {
			(*fn)(ev)
		}
	}
	if joined {
		m.publish()
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Alive returns the current live view: self plus every non-failed peer,
// sorted by name (the ring order).
func (m *Member) Alive() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []MemberInfo{m.self.clone()}
	for _, p := range m.peers {
		if !p.failed {
			out = append(out, p.info.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the live member with the given name. Like OffersOf it is
// served from the memoized view and SHARED: the Services and
// PreferredSecondaryGroups slices of the result are read-only. The
// replication path looks up an address per request, so this must not clone.
func (m *Member) Lookup(name string) (MemberInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshCacheLocked()
	for i := range m.aliveCache {
		if m.aliveCache[i].Name == name {
			return m.aliveCache[i], true
		}
	}
	return MemberInfo{}, false
}

// OffersOf returns the live members offering the given service, in ring
// (name) order. The result is memoized per membership version and SHARED:
// callers must treat the slice and the MemberInfo values in it (including
// their Services slices) as read-only snapshots. Every consumer on the
// request path — stub policies, routers, the secondary Picker — reads it in
// place or copies before reordering, which is what makes the routing
// decision allocation-free between membership changes.
func (m *Member) OffersOf(service string) []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshCacheLocked()
	if out, ok := m.offersCache[service]; ok {
		return out
	}
	var out []MemberInfo
	for _, mi := range m.aliveCache {
		if mi.OffersService(service) {
			out = append(out, mi)
		}
	}
	m.offersCache[service] = out
	return out
}

// refreshCacheLocked rebuilds the memoized live view after a membership
// change. Caller holds m.mu.
func (m *Member) refreshCacheLocked() {
	if m.cacheVer == m.version && m.aliveCache != nil {
		return
	}
	out := []MemberInfo{m.self.clone()}
	for _, p := range m.peers {
		if !p.failed {
			out = append(out, p.info.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	m.aliveCache = out
	m.offersCache = make(map[string][]MemberInfo)
	m.cacheVer = m.version
}

// EncodeMembers serializes a member list (used by the built-in cluster-view
// service that external tightly-coupled clients poll, §2.2).
func EncodeMembers(ms []MemberInfo) []byte {
	e := wire.NewEncoder(64 * len(ms))
	e.Int(len(ms))
	for _, m := range ms {
		e.Bytes2(m.encode())
	}
	return e.Bytes()
}

// DecodeMembers reverses EncodeMembers.
func DecodeMembers(b []byte) ([]MemberInfo, error) {
	d := wire.NewDecoder(b)
	// A member is a length-prefixed record of four strings, two string
	// lists and an incarnation: eight bytes at least.
	n := d.Count(8)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cluster: member count: %w", err)
	}
	out := make([]MemberInfo, 0, n)
	for i := 0; i < n; i++ {
		m, err := decodeMemberInfo(d.Bytes())
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, d.Err()
}
