package kv

import "sync"

// Mem is the in-memory backend: the image with a lock around it. It is
// the latency floor the durable backend is measured against (E32) and
// the default engine under store.New, which preserves the pre-refactor
// behaviour of a purely in-memory database substrate.
type Mem struct {
	// mu guards img. Get and View read under a read lock; Scan and Count
	// may rebuild the key index, so they hold it exclusively, and Scan runs
	// its callback under it (the Store contract forbids reentrancy from fn).
	mu     sync.RWMutex
	img    *image
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{img: newImage()}
}

// Get implements Store.
func (m *Mem) Get(key string) ([]byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.img.get(key)
	if !ok {
		return nil, false
	}
	return []byte(v), true
}

// View implements Store.
func (m *Mem) View(key []byte) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.img.view(key)
}

// Scan implements Store.
func (m *Mem) Scan(prefix string, fn func(key, value string) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.img.scan(prefix, fn)
}

// Count implements Store.
func (m *Mem) Count(prefix string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.img.count(prefix)
}

// Put implements Store.
func (m *Mem) Put(key string, value []byte) error {
	return m.Apply([]Op{{Kind: OpPut, Key: key, Value: string(value)}})
}

// Delete implements Store.
func (m *Mem) Delete(key string) error {
	return m.Apply([]Op{{Kind: OpDelete, Key: key}})
}

// Apply implements Store. In-memory application under one lock hold is
// trivially atomic.
func (m *Mem) Apply(ops []Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.img.apply(ops)
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
