package kv

import (
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// modelKeys are the keys the image model test writes: more than a
// space's least slack (64), so fresh overflows and enough run entries die
// to compact both ways. They come in four shapes: short keys, keys that
// share their whole 8-byte prefix and differ after it, keys shorter than
// 8 bytes that are prefixes of those, and keys holding NUL and 0xff bytes.
var modelKeys = func() []string {
	keys := make([]string, 192)
	for i := range keys {
		n := strconv.Itoa(i)
		switch i % 4 {
		case 0:
			keys[i] = "k" + n
		case 1:
			keys[i] = "shared-p" + n
		case 2:
			keys[i] = "shared"[:i%7] + n
		case 3:
			keys[i] = "\x00\xff" + n + "\x00"
		}
	}
	return keys
}()

var modelSpaces = [3]string{"", "a", "b"}

// modelStats counts what a model run exercised: compactions started by a
// full fresh and by too many dead entries, and puts of a dead key.
type modelStats struct{ freshCompactions, deadCompactions, revived int }

// runImageModel reads data as ops, three bytes each — kind and repeat
// count, space, key — applies them to an image and to a map model, and
// checks the image against the model after every op. The kinds:
//
//	0, 1  put rep consecutive keys
//	2     delete rep live entries of run
//	3     put rep dead entries of run
//	4     delete rep consecutive keys, present or not
//	5     Scan and Count a prefix of a key, and a Scan stopped after rep keys
//	6     Spaces
//	7     one batch putting a key, deleting it and putting it again
func runImageModel(t *testing.T, data []byte) modelStats {
	t.Helper()
	im := newImage()
	model := make(map[string]map[string]string)
	var st modelStats
	step := 0
	apply := func(ops ...Op) {
		for _, op := range ops {
			m := model[op.Space]
			if m == nil {
				m = make(map[string]string)
				model[op.Space] = m
			}
			if op.Kind == OpPut {
				m[op.Key] = op.Value
			} else {
				delete(m, op.Key)
			}
		}
		im.apply(ops)
	}
	for ; len(data) >= 3; data = data[3:] {
		step++
		kind, rep := data[0]&7, 1+int(data[0]>>3)
		space := modelSpaces[int(data[1])%len(modelSpaces)]
		k := int(data[2]) % len(modelKeys)
		sp := im.spaces[space]
		switch kind {
		case 0, 1:
			for r := 0; r < rep; r++ {
				fresh := 0
				if sp = im.spaces[space]; sp != nil {
					fresh = len(sp.fresh)
				}
				key := modelKeys[(k+r)%len(modelKeys)]
				apply(Op{Kind: OpPut, Space: space, Key: key, Value: "v" + strconv.Itoa(step)})
				if sp != nil && len(sp.fresh) < fresh {
					st.freshCompactions++
				}
			}
		case 2, 3:
			for r := 0; r < rep && sp != nil; r++ {
				i := nthRunEntry(sp, k+r, kind == 3)
				if i < 0 {
					break
				}
				if kind == 2 {
					ndead := sp.ndead
					apply(Op{Kind: OpDelete, Space: space, Key: sp.run[i].key})
					if sp.ndead < ndead {
						st.deadCompactions++
					}
				} else {
					apply(Op{Kind: OpPut, Space: space, Key: sp.run[i].key, Value: "r" + strconv.Itoa(step)})
					st.revived++
				}
			}
		case 4:
			for r := 0; r < rep; r++ {
				apply(Op{Kind: OpDelete, Space: space, Key: modelKeys[(k+r)%len(modelKeys)]})
			}
		case 5:
			key := modelKeys[k]
			prefix := key[:int(data[1]>>2)%(len(key)+1)]
			want := modelScan(model[space], prefix)
			if got := imageScan(im, space, prefix, -1); !slices.Equal(got, want) {
				t.Fatalf("step %d: Scan(%q, %q) = %q, model %q", step, space, prefix, got, want)
			}
			if got := im.Count(space, prefix); got != len(want)/2 {
				t.Fatalf("step %d: Count(%q, %q) = %d, model %d", step, space, prefix, got, len(want)/2)
			}
			if got, want := imageScan(im, space, prefix, rep), want[:2*min(rep, len(want)/2)]; !slices.Equal(got, want) {
				t.Fatalf("step %d: Scan(%q, %q) stopped after %d = %q, model %q", step, space, prefix, rep, got, want)
			}
		case 6:
			var want []string
			for name, m := range model {
				if len(m) > 0 {
					want = append(want, name)
				}
			}
			slices.Sort(want)
			if got := im.Spaces(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Spaces() = %q, model %q", step, got, want)
			}
		case 7:
			key := modelKeys[k]
			apply(Op{Kind: OpPut, Space: space, Key: key, Value: "a" + strconv.Itoa(step)},
				Op{Kind: OpDelete, Space: space, Key: key},
				Op{Kind: OpPut, Space: space, Key: key, Value: "b" + strconv.Itoa(step)})
		}
		checkImage(t, step, im, model)
	}
	return st
}

// nthRunEntry returns the index of the n-th (cyclically) entry of run
// that is dead, or live, or -1 if there is none.
func nthRunEntry(sp *space, n int, dead bool) int {
	var idx []int
	for i := range sp.run {
		if sp.isDead(i) == dead {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[n%len(idx)]
}

// modelScan lists the model's keys carrying prefix, sorted, each followed
// by its value.
func modelScan(m map[string]string, prefix string) []string {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	out := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		out = append(out, k, m[k])
	}
	return out
}

// imageScan lists what Scan visits, stopping after limit keys (all for
// a negative limit), as modelScan does.
func imageScan(im *Image, space, prefix string, limit int) []string {
	out := []string{}
	im.Scan(space, prefix, func(k, v string) bool {
		out = append(out, k, v)
		return len(out)/2 != limit
	})
	return out
}

// checkImage holds every space of the image to the model, through View,
// Count and a whole-space Scan, and checks the index's own bookkeeping.
func checkImage(t *testing.T, step int, im *Image, model map[string]map[string]string) {
	t.Helper()
	for _, space := range modelSpaces {
		m := model[space]
		for _, k := range modelKeys {
			v, ok := im.View(space, k)
			if mv, mok := m[k]; ok != mok || v != mv {
				t.Fatalf("step %d: View(%q, %q) = %q, %v; model %q, %v", step, space, k, v, ok, mv, mok)
			}
		}
		if got, want := imageScan(im, space, "", -1), modelScan(m, ""); !slices.Equal(got, want) {
			t.Fatalf("step %d: Scan(%q) = %q, model %q", step, space, got, want)
		}
		if got := im.Count(space, ""); got != len(m) {
			t.Fatalf("step %d: Count(%q) = %d, model %d", step, space, got, len(m))
		}
		sp := im.spaces[space]
		if sp == nil {
			continue
		}
		ndead := 0
		for _, w := range sp.dead {
			ndead += bits.OnesCount64(w)
		}
		if ndead != sp.ndead || sp.ndead+sp.live != len(sp.run)+len(sp.fresh) {
			t.Fatalf("step %d: space %q counts %d dead (bitmap %d), %d live, over %d + %d entries",
				step, space, sp.ndead, ndead, sp.live, len(sp.run), len(sp.fresh))
		}
		for _, es := range [][]entry{sp.run, sp.fresh} {
			for i := range es {
				if es[i].prefix != prefixOf(es[i].key) || i > 0 && !before(&es[i-1], &es[i]) {
					t.Fatalf("step %d: space %q: entry %d (%q) out of order or with a wrong prefix", step, space, i, es[i].key)
				}
			}
		}
	}
}

// modelSeeds fill one space past two compactions of fresh, kill run
// entries past a compaction of the dead with puts of dead keys between,
// and scan and list along the way; the last seed touches all three
// spaces with batches and short scans.
func modelSeeds() [][]byte {
	op := func(kind, rep, space, key int) []byte { return []byte{byte(kind | (rep-1)<<3), byte(space), byte(key)} }
	var a []byte
	for k := 0; k < 192; k += 32 {
		a = append(a, op(0, 32, 0, k)...)
	}
	a = append(a, op(5, 8, 4, 1)...)
	a = append(a, op(2, 32, 0, 0)...)
	a = append(a, op(3, 16, 0, 3)...)
	a = append(a, op(2, 32, 0, 7)...)
	a = append(a, op(5, 3, 8, 5)...)
	a = append(a, op(2, 32, 0, 11)...)
	a = append(a, op(6, 1, 0, 0)...)
	a = append(a, op(3, 8, 0, 2)...)
	a = append(a, op(4, 32, 0, 100)...)
	a = append(a, op(0, 32, 0, 150)...)
	a = append(a, op(5, 32, 12, 9)...)
	var b []byte
	for i := 0; i < 24; i++ {
		b = append(b, op(i%8, 1+i%5, i, 13*i)...)
	}
	return [][]byte{a, b}
}

// FuzzImage: any op sequence leaves the image answering View, Scan,
// Count and Spaces as a map model does, after every op.
func FuzzImage(f *testing.F) {
	for _, s := range modelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runImageModel(t, data) })
}

// TestImageModelCompactsBothWays: the model seeds run a compaction of
// fresh and one of the dead, and put dead keys, so FuzzImage checks the
// image across all three from its first input.
func TestImageModelCompactsBothWays(t *testing.T) {
	var total modelStats
	for _, s := range modelSeeds() {
		st := runImageModel(t, s)
		total.freshCompactions += st.freshCompactions
		total.deadCompactions += st.deadCompactions
		total.revived += st.revived
	}
	if total.freshCompactions == 0 || total.deadCompactions == 0 || total.revived == 0 {
		t.Fatalf("the seeds ran %+v: every count must be above 0", total)
	}
}

// BenchmarkImageView looks up keys of one space in random order.
func BenchmarkImageView(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run("keys="+strconv.Itoa(n), func(b *testing.B) {
			im := newImage()
			keys := make([]string, n)
			ops := make([]Op, 0, 256)
			for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
				keys[i] = "k-" + strconv.Itoa(j)
				ops = append(ops, Op{Kind: OpPut, Space: "t", Key: keys[i], Value: "v"})
				if len(ops) == cap(ops) {
					im.apply(ops)
					ops = ops[:0]
				}
			}
			im.apply(ops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := im.View("t", keys[i%n]); !ok {
					b.Fatal("key missing")
				}
			}
		})
	}
}
