//go:build !race

package trace

// Allocation pins (`make gates`): the race runtime drops sync.Pool items
// and allocates on its own, so these tests build only without it.

import (
	"context"
	"testing"

	"wls/internal/vclock"
)

func TestGateDisabledPathAllocations(t *testing.T) {
	ctx := context.Background()
	var tr *Tracer
	if n := testing.AllocsPerRun(200, func() {
		c2, span := tr.StartRoot(ctx, "x", KindInternal)
		span.Finish()
		_ = c2
	}); n != 0 {
		t.Fatalf("nil-tracer StartRoot allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		span := FromContext(ctx)
		_, child := span.NewChild(ctx, "x", KindInternal)
		child.AnnotateInt("i", 3)
		child.Finish()
	}); n != 0 {
		t.Fatalf("no-span child path allocates %v/op, want 0", n)
	}
	never := New("s", vclock.NewVirtualAtZero(), Options{Sampler: Never()})
	if n := testing.AllocsPerRun(200, func() {
		_, span := never.StartRoot(ctx, "x", KindInternal)
		span.Finish()
	}); n != 0 {
		t.Fatalf("unsampled StartRoot allocates %v/op, want 0", n)
	}
}
