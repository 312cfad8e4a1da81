package kv

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// Image is a store's live data, keyed by space and then by key: the one
// picture both backends serve reads from. Mem applies a batch to it
// directly; WAL rebuilds it on open and applies each batch once the batch
// is durable. Values are immutable strings, so View and Scan hand them out
// without a copy, and a key is the very string the op that inserted it
// carried.
//
// Every read holds the image's read lock, and only a batch being applied
// holds it exclusively: a scan keeps its order without rebuilding
// anything, so scans share the lock with each other and with View. Scan
// and Count run fn under the read lock, so fn must not write to the store.
type Image struct {
	mu     sync.RWMutex
	spaces map[string]*space
}

// space is one keyspace: a map for lookups and an ordered index of its
// keys in two sorted runs. run was built by the last compaction; fresh
// holds the keys inserted since, in order, so an insert shifts at most
// fresh. A delete takes its key out of fresh, or leaves it in run as a
// dead entry (not in m) until the next compaction. A key is in at most
// one of the runs, so walking both in merged order, skipping the dead, visits every
// live key once and in order. A space is never dropped once created: the
// stage space of a store's votes is emptied by every commit and filled by
// the next prepare.
type space struct {
	m     map[string]string
	run   []string
	fresh []string
	dead  int // entries of run no longer in m
}

func newImage() *Image {
	return &Image{spaces: make(map[string]*space)}
}

// View returns the value of key in space. The value is the image's own
// string, which a later write replaces but never changes; neither name is
// kept, so a caller may pass strings it builds on its stack.
func (im *Image) View(space, key string) (string, bool) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	sp := im.spaces[space]
	if sp == nil {
		return "", false
	}
	v, ok := sp.m[key]
	return v, ok
}

// Scan visits the keys of space that carry prefix, in ascending byte
// order, with their values; fn returning false stops it. An empty prefix
// visits the whole space.
func (im *Image) Scan(space, prefix string, fn func(key, value string) bool) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	sp := im.spaces[space]
	if sp == nil {
		return
	}
	c := sp.from(prefix)
	for k, ok := c.next(); ok && strings.HasPrefix(k, prefix); k, ok = c.next() {
		if v, live := sp.m[k]; live && !fn(k, v) {
			return
		}
	}
}

// Count returns the number of keys of space that carry prefix.
func (im *Image) Count(space, prefix string) int {
	im.mu.RLock()
	defer im.mu.RUnlock()
	sp := im.spaces[space]
	if sp == nil {
		return 0
	}
	if prefix == "" {
		return len(sp.m)
	}
	n := 0
	c := sp.from(prefix)
	for k, ok := c.next(); ok && strings.HasPrefix(k, prefix); k, ok = c.next() {
		if _, live := sp.m[k]; live {
			n++
		}
	}
	return n
}

// Spaces lists the spaces holding at least one key, sorted.
func (im *Image) Spaces() []string {
	im.mu.RLock()
	defer im.mu.RUnlock()
	var out []string
	for name, sp := range im.spaces {
		if len(sp.m) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// apply applies a batch in order, so a later op on the same key wins. The
// image keeps every string as the op carries it.
func (im *Image) apply(ops []Op) {
	im.mu.Lock()
	defer im.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		sp := im.spaces[op.Space]
		switch op.Kind {
		case OpPut:
			if sp == nil {
				sp = &space{m: make(map[string]string)}
				im.spaces[op.Space] = sp
			}
			_, had := sp.m[op.Key]
			sp.m[op.Key] = op.Value
			if !had {
				sp.insert(op.Key) // after the map: a compaction keeps what m holds
			}
		case OpDelete:
			if sp == nil {
				continue
			}
			if _, ok := sp.m[op.Key]; ok {
				delete(sp.m, op.Key)
				sp.remove(op.Key)
			}
		}
	}
}

// insert adds a key the map does not hold to the index: back to life if
// it is a dead entry of run, else into fresh.
func (sp *space) insert(k string) {
	if sp.dead > 0 {
		if _, ok := slices.BinarySearch(sp.run, k); ok {
			sp.dead--
			return
		}
	}
	i, _ := slices.BinarySearch(sp.fresh, k)
	sp.fresh = slices.Insert(sp.fresh, i, k)
	if len(sp.fresh) > sp.slack() {
		sp.compact()
	}
}

// remove takes a key just deleted from the map out of the index.
func (sp *space) remove(k string) {
	if i, ok := slices.BinarySearch(sp.fresh, k); ok {
		sp.fresh = slices.Delete(sp.fresh, i, i+1)
		return
	}
	sp.dead++
	if sp.dead > sp.slack() {
		sp.compact()
	}
}

// slack is how long fresh, and how many dead entries, a space lets grow
// before it compacts: about √n for n keys in run, at least 64. An insert
// then shifts O(√n) keys of fresh, and a compaction, which moves at most
// n, comes once in √n writes, so a write costs O(√n) moves either way.
func (sp *space) slack() int {
	s := 64
	for s*s < len(sp.run) {
		s *= 2
	}
	return s
}

// compact drops the dead from run and merges fresh into it, in place and
// from the back, so keys inserted in ascending order — a bulk load, a
// sequence — move nothing already in run, and run grows as append grows a
// slice. Only a batch being applied changes the runs, under the image's
// write lock, so no reader sees one half-merged. fresh keeps its array for
// the inserts to come.
func (sp *space) compact() {
	run := sp.run
	if sp.dead > 0 {
		run = slices.DeleteFunc(run, func(k string) bool {
			_, live := sp.m[k]
			return !live
		})
	}
	i, j := len(run)-1, len(sp.fresh)-1
	run = slices.Grow(run, len(sp.fresh))[:len(run)+len(sp.fresh)]
	for k := len(run) - 1; j >= 0; k-- {
		if i >= 0 && run[i] > sp.fresh[j] {
			run[k], i = run[i], i-1
		} else {
			run[k], j = sp.fresh[j], j-1
		}
	}
	clear(sp.fresh)
	sp.run, sp.fresh, sp.dead = run, sp.fresh[:0], 0
}

// from returns a cursor at the first key not below prefix.
func (sp *space) from(prefix string) cursor {
	i, _ := slices.BinarySearch(sp.run, prefix)
	j, _ := slices.BinarySearch(sp.fresh, prefix)
	return cursor{sp.run[i:], sp.fresh[j:]}
}

// cursor walks the two runs of a space in merged order, dead entries
// included.
type cursor struct{ run, fresh []string }

func (c *cursor) next() (string, bool) {
	var k string
	switch {
	case len(c.run) > 0 && (len(c.fresh) == 0 || c.run[0] < c.fresh[0]):
		k, c.run = c.run[0], c.run[1:]
	case len(c.fresh) > 0:
		k, c.fresh = c.fresh[0], c.fresh[1:]
	default:
		return "", false
	}
	return k, true
}
