package kv_test

// The crash-chaos suite. A workload of batches and maintenance calls runs
// against a CrashFS whose budget is swept from zero to the workload's
// total mutating-op count, so EVERY crash window — mid-commit frame, mid
// checkpoint, mid log reset, the torn final write itself — is visited
// deterministically, in both of CrashFS's modes: a crash that keeps every
// completed write, and one that keeps only what a Sync made durable.
// After each simulated crash the store is reopened on the real filesystem
// and checked against the model:
//
//   - every acknowledged batch is present (durability),
//   - the one in-flight batch is either fully present or fully absent
//     (atomicity),
//   - maintenance (Checkpoint) never changes visible state,
//   - recovery is idempotent (a second reopen sees the same state), and
//   - the recovered store accepts new writes.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wls/internal/kv"
	"wls/internal/kv/kvtest"
)

// chaosAction is one step of the workload: a batch of ops, or (when ops
// is nil) a maintenance call — Checkpoint, where the backend has one.
type chaosAction struct {
	ops []kv.Op
}

type chaosBackend struct {
	name string
	open func(dir string, fs kv.FS) (kv.Store, error)
}

func chaosBackends() []chaosBackend {
	return []chaosBackend{
		{
			name: "wal",
			open: func(dir string, fs kv.FS) (kv.Store, error) {
				return kv.OpenWAL(walPath(dir), kv.Options{
					SyncEveryCommit: true,
					FS:              fs,
					CheckpointBytes: -1, // maintenance actions drive checkpoints
				})
			},
		},
	}
}

func maintain(s kv.Store) error {
	if c, ok := s.(kv.Checkpointer); ok {
		return c.Checkpoint()
	}
	return nil
}

// chaosWorkload builds a deterministic action list: batches of 1-4 ops
// over a small key space in three spaces (so deletes hit live keys), with maintenance
// every eighth action.
func chaosWorkload(seed int64, n int) []chaosAction {
	rng := rand.New(rand.NewSource(seed))
	actions := make([]chaosAction, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && i%8 == 0 {
			actions = append(actions, chaosAction{}) // maintenance
			continue
		}
		nops := 1 + rng.Intn(4)
		ops := make([]kv.Op, 0, nops)
		for j := 0; j < nops; j++ {
			space, key := fmt.Sprintf("s%d", rng.Intn(3)), fmt.Sprintf("k%02d", rng.Intn(20))
			if rng.Intn(4) == 0 {
				ops = append(ops, kv.Op{Kind: kv.OpDelete, Space: space, Key: key})
			} else {
				ops = append(ops, kv.Op{
					Kind:  kv.OpPut,
					Space: space,
					Key:   key,
					Value: fmt.Sprintf("v%d.%d", i, j),
				})
			}
		}
		actions = append(actions, chaosAction{ops: ops})
	}
	return actions
}

func applyToModel(m map[[2]string]string, ops []kv.Op) {
	for _, op := range ops {
		if op.Kind == kv.OpPut {
			m[[2]string{op.Space, op.Key}] = op.Value
		} else {
			delete(m, [2]string{op.Space, op.Key})
		}
	}
}

func cloneModel(m map[[2]string]string) map[[2]string]string {
	out := make(map[[2]string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// countMutatingOps dry-runs the workload to find the sweep bound.
func countMutatingOps(t *testing.T, bc chaosBackend, actions []chaosAction) int {
	t.Helper()
	dir := t.TempDir()
	rec := kvtest.NewCrashFS(nil, -1)
	s, err := bc.open(dir, rec)
	if err != nil {
		t.Fatalf("dry-run open: %v", err)
	}
	for _, a := range actions {
		if a.ops == nil {
			err = maintain(s)
		} else {
			err = s.Apply(a.ops)
		}
		if err != nil {
			t.Fatalf("dry-run action: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("dry-run close: %v", err)
	}
	return rec.MutatingOps()
}

// runCrashAt executes the workload against a CrashFS with the given step
// budget, then reopens on the real filesystem and checks the invariants.
func runCrashAt(t *testing.T, bc chaosBackend, mode kvtest.Mode, actions []chaosAction, step, tearNum, tearDen int) {
	t.Helper()
	dir := t.TempDir()
	cfs := kvtest.NewCrashFS(nil, step)
	cfs.SetTear(tearNum, tearDen)
	cfs.SetMode(mode)

	acked := map[[2]string]string{}
	var inflight []kv.Op

	s, err := bc.open(dir, cfs)
	if err == nil {
		for _, a := range actions {
			if a.ops == nil {
				err = maintain(s)
			} else {
				err = s.Apply(a.ops)
			}
			if err != nil {
				if a.ops != nil {
					inflight = a.ops
				}
				break
			}
			if a.ops != nil {
				applyToModel(acked, a.ops)
			}
		}
		s.Close() // post-crash close errors are expected; ignored
	}
	if !cfs.Crashed() {
		t.Fatalf("step %d: workload finished without crashing (budget too large for sweep)", step)
	}

	// Recovery on the real filesystem.
	s2, err := bc.open(dir, nil)
	if err != nil {
		t.Fatalf("step %d: reopen after crash failed: %v\nops:\n  %v", step, err, cfs.Ops())
	}
	got := dump(s2)
	withInflight := cloneModel(acked)
	if inflight != nil {
		applyToModel(withInflight, inflight)
	}
	if !reflect.DeepEqual(got, acked) && !reflect.DeepEqual(got, withInflight) {
		t.Fatalf("step %d: recovered state matches neither acked nor acked+inflight\n got: %v\nacked: %v\nwith inflight: %v",
			step, got, acked, withInflight)
	}
	// Recovery must be idempotent and leave a writable store.
	if err := s2.Put("s\x00post-crash", []byte("ok")); err != nil {
		t.Fatalf("step %d: recovered store rejects writes: %v", step, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("step %d: close after recovery: %v", step, err)
	}
	s3, err := bc.open(dir, nil)
	if err != nil {
		t.Fatalf("step %d: second reopen failed: %v", step, err)
	}
	if v, ok := get(s3, "post-crash"); !ok || v != "ok" {
		t.Fatalf("step %d: write after recovery lost on reopen", step)
	}
	if err := s3.Close(); err != nil {
		t.Fatalf("step %d: final close: %v", step, err)
	}
}

// TestCrashChaosSweep visits every crash window of a fixed workload.
func TestCrashChaosSweep(t *testing.T) {
	for _, bc := range chaosBackends() {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			actions := chaosWorkload(1, 40)
			total := countMutatingOps(t, bc, actions)
			if total < 40 {
				t.Fatalf("workload only produced %d mutating ops", total)
			}
			// Vary the tear fraction across steps: boundary tears, half
			// tears, and almost-complete frames.
			tears := [][2]int{{0, 1}, {1, 2}, {9, 10}}
			for _, mode := range kvtest.Modes {
				t.Run(mode.String(), func(t *testing.T) {
					for step := 0; step < total; step++ {
						tear := tears[step%len(tears)]
						runCrashAt(t, bc, mode, actions, step, tear[0], tear[1])
					}
				})
			}
		})
	}
}

// TestCrashChaosSeeded samples crash points across randomized workloads.
func TestCrashChaosSeeded(t *testing.T) {
	for _, bc := range chaosBackends() {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			for _, mode := range kvtest.Modes {
				t.Run(mode.String(), func(t *testing.T) {
					for seed := int64(2); seed < 6; seed++ {
						actions := chaosWorkload(seed, 30)
						total := countMutatingOps(t, bc, actions)
						rng := rand.New(rand.NewSource(seed * 977))
						for i := 0; i < 12; i++ {
							step := rng.Intn(total)
							runCrashAt(t, bc, mode, actions, step, rng.Intn(10), 10)
						}
					}
				})
			}
		})
	}
}
