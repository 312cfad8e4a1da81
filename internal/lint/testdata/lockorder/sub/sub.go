// Package sub exists so the lockorder fixture can prove that lock
// acquisitions cross package boundaries through exported facts.
package sub

import "sync"

// Store guards its state with a mutex of class sub.Store.mu.
type Store struct {
	mu sync.Mutex
	n  int
}

// Put acquires sub.Store.mu; callers holding other locks pick this up
// through the summary fact exported for Put.
func (s *Store) Put(v int) {
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
}
