package benchtest

import (
	"fmt"
	"os"
	"path/filepath"

	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/store"
	"wls/internal/vclock"
)

func init() {
	register(Experiment{ID: "E32", Title: "Pluggable persistence: table-store commit path per kv backend",
		Source: "§5.1: middle-tier data is accessed only in limited ways, e.g., by key or through a sequential scan — so the store is layered over a flat ordered kv with interchangeable backends", Run: runE32})
}

// runE32 drives the same table-store workload over each kv backend —
// in-memory and the single-file WAL — with and without per-commit fsync,
// and reports commit throughput, the fsync amplification, recovery time (a
// fresh Open over the final file) and the on-disk footprint. The workload
// is half autocommit puts (one row per batch) and half two-row
// transactional commits (the E22 co-location shape).
func runE32() *Table {
	t := &Table{ID: "E32", Title: "Table-store commit path per persistence backend",
		Source:  "§5.1",
		Columns: []string{"backend", "fsync", "workload", "commits", "commits/s", "fsyncs/commit", "recover_ms", "file_KiB"},
		Notes: "mem = no durability (the pre-refactor store). " +
			"wal = frame log + page checkpoint (SQLite-style). Recovery re-opens the finished file and replays; " +
			"file size is after the workload, before any explicit maintenance."}

	dir, _ := os.MkdirTemp("", "e32")
	defer os.RemoveAll(dir)

	type backend struct {
		name string
		sync bool
		open func(path string, reg *metrics.Registry, sync bool) (kv.Store, error)
	}
	openWAL := func(path string, reg *metrics.Registry, sync bool) (kv.Store, error) {
		return kv.OpenWAL(path, kv.Options{SyncEveryCommit: sync, Metrics: reg})
	}
	backends := []backend{
		{"mem", false, func(string, *metrics.Registry, bool) (kv.Store, error) { return kv.NewMem(), nil }},
		{"wal", false, openWAL},
		{"wal", true, openWAL},
	}

	for _, b := range backends {
		commits := 2000
		if b.sync {
			commits = 200 // per-commit fsync dominates; keep the run short
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%v.db", b.name, b.sync))
		reg := metrics.NewRegistry()
		kvs, err := b.open(path, reg, b.sync)
		if err != nil {
			panic(err)
		}
		s, err := store.Open("db", vclock.System, kvs)
		if err != nil {
			panic(err)
		}

		for _, w := range []string{"autocommit put", "tx 2-row commit"} {
			syncs0 := reg.Counter("kv.syncs").Value()
			start := wall.Now()
			for i := 0; i < commits; i++ {
				k := fmt.Sprintf("k%04d", i%512)
				v := map[string]string{"n": fmt.Sprint(i), "pad": "xxxxxxxxxxxxxxxx"}
				if w == "autocommit put" {
					if _, err := s.PutE("acct", k, v); err != nil {
						panic(err)
					}
				} else {
					txID := fmt.Sprintf("%s-%v-%d", b.name, b.sync, i)
					sess := s.Session(txID)
					sess.Update("acct", k, v)
					sess.Update("audit", k, v)
					if err := sess.Commit(txID); err != nil {
						panic(err)
					}
				}
			}
			elapsed := wall.Since(start)
			syncs := reg.Counter("kv.syncs").Value() - syncs0
			fsync := "-"
			if b.name != "mem" {
				fsync = fmt.Sprintf("%.1f", float64(syncs)/float64(commits))
			}
			t.AddRow(b.name, b.sync, w, commits,
				fmt.Sprintf("%.0f", float64(commits)/elapsed.Seconds()),
				fsync, "-", "-")
		}

		// Recovery + footprint of the finished file.
		if err := s.Close(); err != nil {
			panic(err)
		}
		recover, size := "-", "-"
		if b.name != "mem" {
			kvs, err = b.open(path, reg, b.sync)
			if err != nil {
				panic(err)
			}
			start := wall.Now()
			s2, err := store.Open("db", vclock.System, kvs)
			if err != nil {
				panic(err)
			}
			recover = fmt.Sprintf("%.1f", float64(wall.Since(start).Microseconds())/1000)
			size = fmt.Sprintf("%d", fileBytes(path, path+"-wal")/1024)
			if err := s2.Close(); err != nil {
				panic(err)
			}
		}
		t.AddRow(b.name, b.sync, "recovery", "-", "-", "-", recover, size)
	}
	return t
}

// fileBytes sums the sizes of the named files: a WAL store's footprint is
// its main file and its log.
func fileBytes(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			panic(err)
		}
		n += fi.Size()
	}
	return n
}
