package server

import (
	"testing"

	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// TestCommitSteadyStateAllocs pins the one ingest path's cost: once the
// partition's units exist and dst has room, logging and applying a frame
// allocates nothing, with or without a WAL.
func TestCommitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds make sync.Pool drop items on purpose; the zero-alloc pin only holds in a normal build")
	}
	evs := synthEvents(1024, 9)
	payload := trace.EncodeFrameAppend(nil, evs)
	for _, tc := range []struct {
		name string
		wal  bool
	}{{"no-wal", false}, {"wal-interval", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Params: testParams()}
			if tc.wal {
				l, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams()), Policy: wal.SyncInterval})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				cfg.WAL = l
			}
			s := New(cfg)
			p := s.table.partition("p")
			frames := []frameSpan{{pend: len(payload), events: len(evs)}}
			dst := make([]byte, 0, len(evs))
			// Warm up: create every unit, the WAL segment and its buffers.
			dst, c, err := s.commit(p, payload, frames, 0, dst[:0])
			if err != nil || len(dst) != len(evs) || c.events != len(evs) {
				t.Fatalf("warmup: %d decisions, %d events, %v", len(dst), c.events, err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				dst, _, err = s.commit(p, payload, frames, 0, dst[:0])
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > 0 {
				t.Fatalf("commit allocated %.1f objects per frame in steady state; want 0", allocs)
			}
		})
	}
}
