package webtier

// affinityLRU is the appliance's sticky-routing table: a bounded
// clientID → server map with least-recently-used eviction. A real IP
// appliance has a finite affinity CAM and ages entries out; the previous
// unbounded map grew one entry per client forever, which under a
// million-client open-loop run (E33) is an unrecoverable leak. Eviction is
// harmless: a client whose entry aged out is simply re-balanced on its
// next request and the session cookie still routes it correctly at the
// engine tier.
type affinityLRU struct {
	cap        int
	m          map[string]*affinityEntry
	head, tail *affinityEntry // head = most recently used
}

type affinityEntry struct {
	client, server string
	prev, next     *affinityEntry
}

// defaultAffinityCap bounds the table; at ~64 bytes an entry the table
// tops out around 4 MB.
const defaultAffinityCap = 1 << 16

func newAffinityLRU(capacity int) *affinityLRU {
	if capacity <= 0 {
		capacity = defaultAffinityCap
	}
	return &affinityLRU{cap: capacity, m: make(map[string]*affinityEntry)}
}

func (l *affinityLRU) unlink(e *affinityEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *affinityLRU) pushFront(e *affinityEntry) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// get returns the client's sticky server and promotes the entry.
func (l *affinityLRU) get(client string) (string, bool) {
	e, ok := l.m[client]
	if !ok {
		return "", false
	}
	if l.head != e {
		l.unlink(e)
		l.pushFront(e)
	}
	return e.server, true
}

// put records the client's sticky server, evicting the least-recently-used
// entry when full. Steady-state updates of a known client allocate
// nothing.
func (l *affinityLRU) put(client, server string) {
	if e, ok := l.m[client]; ok {
		e.server = server
		if l.head != e {
			l.unlink(e)
			l.pushFront(e)
		}
		return
	}
	for len(l.m) >= l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.m, victim.client)
	}
	e := &affinityEntry{client: client, server: server}
	l.m[client] = e
	l.pushFront(e)
}
