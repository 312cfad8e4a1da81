package kv

import "sort"

// image is the in-memory picture of a store's live data, shared by every
// backend: Mem serves from it directly, WAL rebuilds it on open and
// keeps it current as commits land. Values are immutable strings, so View
// can hand them out without a copy. The sorted-key index is built lazily —
// writes invalidate it, the next Scan rebuilds it — so write-heavy phases
// pay O(1) per op and scan-heavy phases pay one sort after the last write.
type image struct {
	m    map[string]string
	keys []string // sorted; nil when stale
}

func newImage() *image {
	return &image{m: make(map[string]string)}
}

func (im *image) get(key string) (string, bool) {
	v, ok := im.m[key]
	return v, ok
}

// view looks a key up without converting it to a string on the heap.
func (im *image) view(key []byte) (string, bool) {
	v, ok := im.m[string(key)]
	return v, ok
}

func (im *image) put(key, value string) {
	if _, existed := im.m[key]; !existed {
		im.keys = nil
	}
	im.m[key] = value
}

func (im *image) del(key string) {
	if _, existed := im.m[key]; existed {
		im.keys = nil
		delete(im.m, key)
	}
}

func (im *image) apply(ops []Op) {
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case OpPut:
			im.put(op.Key, op.Value)
		case OpDelete:
			im.del(op.Key)
		}
	}
}

func (im *image) len() int { return len(im.m) }

// sorted returns the key index, rebuilding it if writes invalidated it.
func (im *image) sorted() []string {
	if im.keys == nil {
		keys := make([]string, 0, len(im.m))
		for k := range im.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		im.keys = keys
	}
	return im.keys
}

// scan visits keys with the prefix in ascending order. It may rebuild the
// key index, so it needs the image exclusively.
func (im *image) scan(prefix string, fn func(key, value string) bool) {
	keys := im.sorted()
	i := sort.SearchStrings(keys, prefix)
	for ; i < len(keys); i++ {
		k := keys[i]
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			return
		}
		if !fn(k, im.m[k]) {
			return
		}
	}
}

// count returns the number of keys carrying the prefix.
func (im *image) count(prefix string) int {
	if prefix == "" {
		return len(im.m)
	}
	keys := im.sorted()
	n := 0
	for i := sort.SearchStrings(keys, prefix); i < len(keys); i++ {
		k := keys[i]
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			break
		}
		n++
	}
	return n
}
