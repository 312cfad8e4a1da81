package benchtest

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/store"
	"wls/internal/vclock"
)

// TestE32SyncedCommitsAreSlower holds E32's durability claim at small N:
// on both workloads, a WAL that fsyncs every commit does exactly one fsync
// per commit, and commits fewer per second than the same WAL unsynced. How
// much fewer follows the disk's fsync, so only the direction is the claim.
// Each arm's rate is its best of a few interleaved rounds, so one slow
// round of either arm decides nothing.
func TestE32SyncedCommitsAreSlower(t *testing.T) {
	const rounds, commits = 3, 20
	dir := t.TempDir()
	type arm struct {
		sync bool
		s    *store.Store
		reg  *metrics.Registry
	}
	var arms [2]arm // unsynced, synced
	for i := range arms {
		sync := i == 1
		reg := metrics.NewRegistry()
		w, err := kv.OpenWAL(filepath.Join(dir, fmt.Sprintf("wal-%v.db", sync)), kv.Options{SyncEveryCommit: sync, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.Open("db", vclock.System, w)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		arms[i] = arm{sync, s, reg}
	}
	for _, w := range e32Workloads {
		var best [2]time.Duration
		for r := 0; r < rounds; r++ {
			for j := range arms {
				i := (j + r) % 2 // the arms take turns going first
				a := arms[i]
				elapsed, syncs := e32Drive(a.s, a.reg, w, fmt.Sprintf("r%d", r), commits)
				want := int64(0)
				if a.sync {
					want = commits
				}
				if syncs != want {
					t.Fatalf("%s, fsync %v: %d fsyncs for %d commits, want %d", w, a.sync, syncs, commits, want)
				}
				if best[i] == 0 || elapsed < best[i] {
					best[i] = elapsed
				}
			}
		}
		unsynced, synced := commits/best[0].Seconds(), commits/best[1].Seconds()
		t.Logf("%s: %.0f commits/s unsynced, %.0f synced", w, unsynced, synced)
		if synced >= unsynced {
			t.Errorf("%s: synced WAL ran %.0f commits/s, not below the unsynced %.0f", w, synced, unsynced)
		}
	}
}
