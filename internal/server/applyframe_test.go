package server

import (
	"fmt"
	"testing"

	"reactivespec/internal/trace"
)

// TestApplyFrameMatchesApplyBatch is the zero-copy apply equivalence pin:
// across seeds, frame sizes, and the number of partitions the trace is dealt
// over (shards=N: round-robin over N programs, visited round-robin),
// decoding-while-applying a wire payload must produce the byte-identical
// decision stream, final instruction count, and table metrics as
// ApplyBatch over the decoded events.
func TestApplyFrameMatchesApplyBatch(t *testing.T) {
	for _, parts := range []int{1, 4, 16} {
		for _, seed := range []uint64{1, 7, 42} {
			for _, batch := range []int{1, 13, 1024, 30_000} {
				t.Run(fmt.Sprintf("shards=%d/seed=%d/batch=%d", parts, seed, batch), func(t *testing.T) {
					names, streams := dealPrograms("prog", synthEvents(30_000, seed), parts)
					batched, framed := NewTable(testParams()), NewTable(testParams())
					want := make([][]byte, parts)
					got := make([][]byte, parts)
					instrA := make([]uint64, parts)
					instrB := make([]uint64, parts)
					var payload []byte
					for off := 0; off < len(streams[0]); off += batch {
						for k, name := range names {
							if off >= len(streams[k]) {
								continue
							}
							chunk := streams[k][off:min(off+batch, len(streams[k]))]
							want[k], instrA[k] = batched.ApplyBatch(name, chunk, instrA[k], want[k])
							payload = trace.EncodeFrameAppend(payload[:0], chunk)
							if _, err := trace.ValidateFrame(payload); err != nil {
								t.Fatalf("encoded frame failed validation: %v", err)
							}
							got[k], instrB[k] = framed.ApplyFrame(name, payload, instrB[k], got[k])
						}
					}
					for k, name := range names {
						if instrA[k] != instrB[k] {
							t.Fatalf("%s: final instruction count %d, want %d", name, instrB[k], instrA[k])
						}
						if string(got[k]) != string(want[k]) {
							t.Fatalf("%s: framed decision stream differs from batched (lengths %d, %d)",
								name, len(got[k]), len(want[k]))
						}
					}
					if gm, wm := framed.Metrics(), batched.Metrics(); gm != wm {
						t.Fatalf("table metrics diverge:\nframed:  %+v\nbatched: %+v", gm, wm)
					}
				})
			}
		}
	}
}

// TestApplyFrameEmpty covers the degenerate frames: zero events, and a
// payload applied into a pre-populated dst.
func TestApplyFrameEmpty(t *testing.T) {
	tab := NewTable(testParams())
	empty := trace.EncodeFrameAppend(nil, nil)
	dst, instr := tab.ApplyFrame("p", empty, 17, nil)
	if len(dst) != 0 || instr != 17 {
		t.Fatalf("empty frame: %d decisions, instr %d", len(dst), instr)
	}
	one := trace.EncodeFrameAppend(nil, []trace.Event{{Branch: 1, Taken: true, Gap: 5}})
	dst = append(dst, 0xEE)
	dst, instr = tab.ApplyFrame("p", one, instr, dst)
	if len(dst) != 2 || dst[0] != 0xEE || instr != 22 {
		t.Fatalf("one-event frame: dst %v, instr %d", dst, instr)
	}
}

// TestApplyFrameSteadyStateAllocs pins the zero-copy claim at the apply
// layer: once the table entries and dst exist, applying a frame allocates
// nothing.
func TestApplyFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds make sync.Pool drop items on purpose; the zero-alloc pin only holds in a normal build")
	}
	evs := synthEvents(4096, 9)
	payload := trace.EncodeFrameAppend(nil, evs)
	tab := NewTable(testParams())
	dst := make([]byte, 0, len(evs))
	var instr uint64
	// Warm up: create every (program, branch) entry.
	dst, instr = tab.ApplyFrame("p", payload, instr, dst[:0])
	if len(dst) != len(evs) {
		t.Fatalf("warmup applied %d of %d events", len(dst), len(evs))
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, instr = tab.ApplyFrame("p", payload, instr, dst[:0])
	})
	if allocs > 0 {
		t.Fatalf("ApplyFrame allocated %.1f objects per frame in steady state; want 0", allocs)
	}
}
