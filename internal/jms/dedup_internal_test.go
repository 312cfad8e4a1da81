package jms

import (
	"context"
	"path/filepath"
	"testing"

	"wls/internal/filestore"
	"wls/internal/rmi"
	"wls/internal/vclock"
	"wls/internal/wire"
)

// TestDeliverFailsWhenDedupMarkNotWritten: a SAF delivery whose dedup mark
// the filestore refuses is reported to the sender as failed and is not
// remembered, so the redelivery is tried again — it used to be remembered
// in memory only, and the redelivery was then dropped as a duplicate and
// acknowledged: the message was lost. White-box because the receiving end
// is the service's method table, not an exported call.
func TestDeliverFailsWhenDedupMarkNotWritten(t *testing.T) {
	fs, err := filestore.Open(filepath.Join(t.TempDir(), "jms.log"), filestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker("s1", vclock.NewVirtualAtZero(), fs, nil)
	b.Queue("dst") // opened while the store still answers
	svc := b.RMIService()
	if err := fs.Close(); err != nil { // every Put fails from here on
		t.Fatal(err)
	}

	m := Message{ID: "fixed-id", Body: []byte("once")}
	one := wire.NewEncoder(64)
	one.String("dst")
	one.String(m.ID)
	one.String(m.Key)
	one.Bytes2(m.Body)
	for _, method := range []string{"deliver", "deliver.batch"} {
		for attempt := 1; attempt <= 2; attempt++ {
			_, err := svc.Methods[method].Handler(context.Background(), &rmi.Call{Args: one.Bytes()})
			if err == nil {
				t.Fatalf("%s, attempt %d: acknowledged although the dedup mark could not be written", method, attempt)
			}
		}
	}
	if n := b.Metrics().Counter("jms.dedup_drops").Value(); n != 0 {
		t.Fatalf("%d redeliveries dropped as duplicates of a delivery that never happened", n)
	}
	if n := b.Queue("dst").Len(); n != 0 {
		t.Fatalf("queue holds %d messages, want 0", n)
	}
}
