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

// space is one keyspace: one ordered index of its entries, in two sorted
// runs. run was built by the last compaction; fresh holds the entries
// inserted since, in order, so an insert shifts at most fresh. A key is
// in at most one of the runs. A delete takes its entry out of fresh, or
// marks it dead in run — a bit of dead, its value dropped — until the
// next compaction; a put of a dead key brings it back where it is. So
// walking both runs in merged order, skipping the dead, visits every live
// key once and in order. A space is never dropped once created: the stage
// space of a store's votes is emptied by every commit and filled by the
// next prepare.
type space struct {
	run   []entry
	fresh []entry
	dead  []uint64 // bit i set: run[i] is deleted; zero past len
	ndead int      // bits set in dead
	live  int      // keys not dead, in both runs
}

// entry is one key of a space and its value. prefix is the key's first
// 8 bytes, big-endian and zero-padded, so ordering entries by (prefix,
// key) orders them by key, and most probes of a search decide on the
// integer without following the key's pointer.
type entry struct {
	prefix     uint64
	key, value string
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
	p := prefixOf(key)
	if i, ok := search(sp.fresh, p, key); ok {
		return sp.fresh[i].value, true
	}
	if i, ok := search(sp.run, p, key); ok && !sp.isDead(i) {
		return sp.run[i].value, true
	}
	return "", false
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
	for e := c.next(); e != nil && strings.HasPrefix(e.key, prefix); e = c.next() {
		if !fn(e.key, e.value) {
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
		return sp.live
	}
	n := 0
	c := sp.from(prefix)
	for e := c.next(); e != nil && strings.HasPrefix(e.key, prefix); e = c.next() {
		n++
	}
	return n
}

// Spaces lists the spaces holding at least one key, sorted.
func (im *Image) Spaces() []string {
	im.mu.RLock()
	defer im.mu.RUnlock()
	var out []string
	for name, sp := range im.spaces {
		if sp.live > 0 {
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
				sp = &space{}
				im.spaces[op.Space] = sp
			}
			sp.put(op.Key, op.Value)
		case OpDelete:
			if sp != nil {
				sp.delete(op.Key)
			}
		}
	}
}

// put sets the value of k: in place if either run holds k, dead or not,
// else as a new entry of fresh.
func (sp *space) put(k, v string) {
	p := prefixOf(k)
	i, ok := search(sp.fresh, p, k)
	if ok {
		sp.fresh[i].value = v
		return
	}
	if j, ok := search(sp.run, p, k); ok {
		if sp.isDead(j) {
			sp.dead[j>>6] &^= 1 << (j & 63)
			sp.ndead--
			sp.live++
		}
		sp.run[j].value = v
		return
	}
	sp.fresh = slices.Insert(sp.fresh, i, entry{p, k, v})
	sp.live++
	if len(sp.fresh) > sp.slack() {
		sp.compact()
	}
}

// delete takes k out of fresh, or marks it dead in run.
func (sp *space) delete(k string) {
	p := prefixOf(k)
	if i, ok := search(sp.fresh, p, k); ok {
		sp.fresh = slices.Delete(sp.fresh, i, i+1)
		sp.live--
		return
	}
	j, ok := search(sp.run, p, k)
	if !ok || sp.isDead(j) {
		return
	}
	if w := j >> 6; w >= len(sp.dead) {
		sp.dead = append(sp.dead, make([]uint64, w+1-len(sp.dead))...)
	}
	sp.dead[j>>6] |= 1 << (j & 63)
	sp.run[j].value = ""
	sp.ndead++
	sp.live--
	if sp.ndead > sp.slack() {
		sp.compact()
	}
}

func (sp *space) isDead(i int) bool {
	w := i >> 6
	return w < len(sp.dead) && sp.dead[w]&(1<<(i&63)) != 0
}

// slack is how long fresh, and how many dead entries, a space lets grow
// before it compacts: about √n for n entries in run, at least 64. An
// insert then shifts O(√n) entries of fresh, and a compaction, which
// moves at most n, comes once in √n writes, so a write costs O(√n) moves
// either way.
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
// write lock, so no reader sees one half-merged. fresh and dead keep
// their arrays for the writes to come.
func (sp *space) compact() {
	run := sp.run
	if sp.ndead > 0 {
		n := 0
		for i := range run {
			if !sp.isDead(i) {
				run[n] = run[i]
				n++
			}
		}
		clear(run[n:])
		run = run[:n]
		clear(sp.dead)
		sp.dead, sp.ndead = sp.dead[:0], 0
	}
	i, j := len(run)-1, len(sp.fresh)-1
	run = slices.Grow(run, len(sp.fresh))[:len(run)+len(sp.fresh)]
	for k := len(run) - 1; j >= 0; k-- {
		if i >= 0 && before(&sp.fresh[j], &run[i]) {
			run[k], i = run[i], i-1
		} else {
			run[k], j = sp.fresh[j], j-1
		}
	}
	clear(sp.fresh)
	sp.run, sp.fresh = run, sp.fresh[:0]
}

// prefixOf returns the first 8 bytes of k as a big-endian integer, padded
// with zero bytes. A key that sorts before another has a prefix no greater.
func prefixOf(k string) uint64 {
	if len(k) >= 8 {
		return uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
			uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
	}
	var p uint64
	for i := 0; i < len(k); i++ {
		p |= uint64(k[i]) << (56 - 8*i)
	}
	return p
}

// before reports whether a's key sorts before b's.
func before(a, b *entry) bool {
	return a.prefix < b.prefix || a.prefix == b.prefix && a.key < b.key
}

// search returns the index of the first entry of es whose key is not
// below k, p being k's prefix, and whether that entry's key is k.
func search(es []entry, p uint64, k string) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := &es[m]; e.prefix < p || e.prefix == p && e.key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(es) && es[lo].prefix == p && es[lo].key == k
}

// from returns a cursor at the first key not below prefix.
func (sp *space) from(prefix string) cursor {
	p := prefixOf(prefix)
	i, _ := search(sp.run, p, prefix)
	j, _ := search(sp.fresh, p, prefix)
	return cursor{sp, i, j}
}

// cursor walks the two runs of a space in merged order, skipping the
// dead entries of run.
type cursor struct {
	sp   *space
	i, j int // the next entries of run and of fresh
}

// next returns the next live entry, or nil past the last.
func (c *cursor) next() *entry {
	run, fresh := c.sp.run, c.sp.fresh
	for c.i < len(run) && (c.j == len(fresh) || before(&run[c.i], &fresh[c.j])) {
		c.i++
		if !c.sp.isDead(c.i - 1) {
			return &run[c.i-1]
		}
	}
	if c.j < len(fresh) {
		c.j++
		return &fresh[c.j-1]
	}
	return nil
}
