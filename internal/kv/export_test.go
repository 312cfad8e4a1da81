package kv

// Checkpoint implements Checkpointer: fold the log into the main file now.
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.checkpointLocked()
}

// WALSize reports the current write-ahead-log size in bytes (tests and
// benchmarks watch it shrink across checkpoints).
func (w *WAL) WALSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.walSize
}

// Generation reports the main file's checkpoint generation.
func (w *WAL) Generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// Checkpointer is implemented by backends with a separate write-ahead log
// that can be folded into the main file (the WAL backend).
type Checkpointer interface {
	Checkpoint() error
}
