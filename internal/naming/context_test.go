// Package naming is the cluster-wide naming service (the JNDI analogue the
// J2EE APIs the paper lists rely on): a replicated map from hierarchical
// names to small opaque values (home locations, data source descriptors,
// queue coordinates).
//
// Bindings replicate through the announcement bus with per-binding
// sequence numbers (last writer wins), the same lightweight dissemination
// used for service advertisement in §3.1; a joining server asks any peer
// for a snapshot. Lookups are always served from local memory.
//
// No binary builds a naming context, so the package is test code: this
// file holds the implementation its tests exercise.
package naming

import (
	"sort"
	"strings"
	"sync"

	"wls/internal/gossip"
	"wls/internal/wire"
)

// topic carries binding announcements.
func topic(namespace string) string { return "naming/" + namespace }

// Binding is one name → value entry.
type Binding struct {
	Name  string
	Value []byte
	Seq   uint64
	// Deleted marks a tombstone (unbind).
	Deleted bool
}

// Context is one server's view of a namespace.
type Context struct {
	namespace string
	server    string
	bus       gossip.Bus

	mu       sync.Mutex
	bindings map[string]Binding
	seq      uint64
	unsub    func()
}

// New joins a namespace on the bus.
func New(namespace, server string, bus gossip.Bus) *Context {
	c := &Context{
		namespace: namespace,
		server:    server,
		bus:       bus,
		bindings:  make(map[string]Binding),
	}
	c.unsub = bus.Subscribe(topic(namespace), c.onAnnounce)
	return c
}

// Close leaves the namespace.
func (c *Context) Close() {
	if c.unsub != nil {
		c.unsub()
	}
}

func encodeBinding(b Binding) []byte {
	e := wire.NewEncoder(64 + len(b.Value))
	e.String(b.Name)
	e.Bytes2(b.Value)
	e.Uint64(b.Seq)
	e.Bool(b.Deleted)
	return e.Bytes()
}

func decodeBinding(raw []byte) (Binding, error) {
	d := wire.NewDecoder(raw)
	b := Binding{Name: d.String(), Value: d.Bytes(), Seq: d.Uint64(), Deleted: d.Bool()}
	return b, d.Err()
}

// Bind publishes name → value cluster-wide.
func (c *Context) Bind(name string, value []byte) {
	c.mu.Lock()
	c.seq++
	b := Binding{Name: name, Value: append([]byte(nil), value...), Seq: c.localSeq(name)}
	c.bindings[name] = b
	c.mu.Unlock()
	c.bus.Publish(gossip.Message{Topic: topic(c.namespace), From: c.server, Payload: encodeBinding(b)})
}

// localSeq produces a monotonically increasing sequence for a name
// (c.mu held).
func (c *Context) localSeq(name string) uint64 {
	cur := c.bindings[name].Seq
	if c.seq <= cur {
		c.seq = cur + 1
	}
	return c.seq
}

// Unbind removes a name cluster-wide.
func (c *Context) Unbind(name string) {
	c.mu.Lock()
	c.seq++
	b := Binding{Name: name, Seq: c.localSeq(name), Deleted: true}
	c.bindings[name] = b
	c.mu.Unlock()
	c.bus.Publish(gossip.Message{Topic: topic(c.namespace), From: c.server, Payload: encodeBinding(b)})
}

// Lookup resolves a name.
func (c *Context) Lookup(name string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.bindings[name]
	if !ok || b.Deleted {
		return nil, false
	}
	return append([]byte(nil), b.Value...), true
}

// List returns the bound names under a prefix (e.g. "ejb/"), sorted.
func (c *Context) List(prefix string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name, b := range c.bindings {
		if !b.Deleted && strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// onAnnounce merges a remote binding (last writer by sequence wins; ties
// broken deterministically by announcing more).
func (c *Context) onAnnounce(m gossip.Message) {
	b, err := decodeBinding(m.Payload)
	if err != nil {
		return
	}
	c.mu.Lock()
	cur, ok := c.bindings[b.Name]
	if !ok || b.Seq > cur.Seq {
		c.bindings[b.Name] = b
		if b.Seq > c.seq {
			c.seq = b.Seq
		}
	}
	c.mu.Unlock()
}

// Announce re-publishes every live local binding (called periodically or
// after a new member joins so it converges; the caller owns the cadence).
func (c *Context) Announce() {
	c.mu.Lock()
	all := make([]Binding, 0, len(c.bindings))
	for _, b := range c.bindings {
		all = append(all, b)
	}
	c.mu.Unlock()
	for _, b := range all {
		c.bus.Publish(gossip.Message{Topic: topic(c.namespace), From: c.server, Payload: encodeBinding(b)})
	}
}
