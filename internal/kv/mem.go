package kv

import "sync"

// Mem is the in-memory backend: the image and nothing else. It is the
// latency floor the durable backend is measured against (E32) and the
// default engine under store.New, which preserves the pre-refactor
// behaviour of a purely in-memory database substrate.
type Mem struct {
	img *Image
	// mu guards closed, and is held across a batch so Close waits for it.
	mu     sync.Mutex
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{img: newImage()}
}

// Image implements Store.
func (m *Mem) Image() *Image { return m.img }

// Put implements Store.
//
//wls:nolint unreached -- benchmark: benchmark/trace.go forwards kv.Store.Put
func (m *Mem) Put(key string, value []byte) error {
	return applyFlat(m, OpPut, key, string(value))
}

// Delete implements Store.
//
//wls:nolint unreached -- benchmark: benchmark/trace.go forwards kv.Store.Delete
func (m *Mem) Delete(key string) error { return applyFlat(m, OpDelete, key, "") }

// Apply implements Store. In-memory application under one lock hold is
// trivially atomic.
func (m *Mem) Apply(ops []Op) error {
	if err := checkOps(ops); err != nil {
		return err
	}
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
