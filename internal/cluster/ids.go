package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand/v2"
	"sync"
)

// IDLen is the length of a record id: a session's, a stateful bean's.
const IDLen = 16

// idSource draws record ids. A member keeps one for its whole life, so a
// restarted server draws on from where it was and never repeats an id a
// peer may still hold a record of.
type idSource struct {
	mu  sync.Mutex
	rng *mrand.ChaCha8 // nil: crypto/rand
}

func newIDSource(seed int64) idSource {
	if seed == 0 {
		return idSource{}
	}
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(seed))
	return idSource{rng: mrand.NewChaCha8(key)}
}

// NewID draws a record id: 16 bytes from crypto/rand, which no client can
// guess from the ids it has seen, or from the stream Config.IDSeed names.
func (m *Member) NewID() (id [IDLen]byte) {
	s := &m.ids
	if s.rng == nil {
		if _, err := rand.Read(id[:]); err != nil {
			panic("cluster: crypto/rand: " + err.Error())
		}
		return id
	}
	s.mu.Lock()
	binary.LittleEndian.PutUint64(id[:8], s.rng.Uint64())
	binary.LittleEndian.PutUint64(id[8:], s.rng.Uint64())
	s.mu.Unlock()
	return id
}

// IDString renders a record id for people: trace annotations, error text.
func IDString(id string) string { return hex.EncodeToString([]byte(id)) }
