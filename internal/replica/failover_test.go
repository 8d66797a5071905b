package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// TestFailoverBitwiseIdentical is the subsystem's end-to-end claim: kill the
// primary mid-run, promote the follower, redirect the client, and the
// surviving decision stream is bitwise-identical to an uncrashed in-process
// control. The client resumes from the promoted replica's /v1/cursor event
// count, exactly as reactiveload -failover does. shards=N runs N programs
// side by side, so N partitions each resume from their own cursor.
func TestFailoverBitwiseIdentical(t *testing.T) {
	for _, programs := range []int{1, 4} {
		for _, seed := range []uint64{3, 11} {
			t.Run(fmt.Sprintf("shards=%d,seed=%d", programs, seed), func(t *testing.T) {
				runFailover(t, programs, seed)
			})
		}
	}
}

func runFailover(t *testing.T, programs int, seed uint64) {
	const (
		batchEvents = 250
		batches     = 40
		killAfter   = 25 // batches per program ingested into the primary before the crash
	)
	names := make([]string, programs)
	events := make([][]trace.Event, programs)
	control := make([][]byte, programs)
	got := make([][]byte, programs)
	for k := range names {
		names[k] = "gzip"
		if programs > 1 {
			names[k] = fmt.Sprintf("gzip-%d", k)
		}
		events[k] = synthEvents(batches*batchEvents, seed+uint64(k))
		// The uncrashed control: one in-process table sees the whole
		// stream.
		tab := server.NewTable(testParams())
		var instr uint64
		for _, ev := range events[k] {
			instr += uint64(ev.Gap)
			control[k] = append(control[k], tab.Apply(names[k], ev, instr).Encode())
		}
		got[k] = make([]byte, len(events[k]))
	}

	p := startPrimary(t)
	r := startReplica(t, p.ln.Addr().String(), 8)
	ctx := context.Background()

	// Phase 1: drive the primary, the programs' batches interleaved. Every
	// acked decision is recorded at its absolute stream index.
	idx := 0
	for b := 0; b < killAfter; b++ {
		for k, program := range names {
			ds, err := p.client.Ingest(ctx, program, events[k][idx:idx+batchEvents])
			if err != nil {
				t.Fatalf("primary ingest %s batch %d: %v", program, b, err)
			}
			for i, d := range ds {
				got[k][idx+i] = d.Encode()
			}
		}
		idx += batchEvents
	}

	// The crash: HTTP front end, shipper, and replication listener all die
	// at once, with no drain. The follower holds whatever it holds.
	p.kill()

	// Failover: promote the replica, learn the resume point, redirect.
	res, err := r.client.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if res.Mode != "primary" {
		t.Fatalf("promote result %+v", res)
	}
	if _, err := r.client.Promote(ctx); !errors.Is(err, server.ErrNotReplica) {
		t.Fatalf("second promote: %v, want ErrNotReplica", err)
	}
	for k, program := range names {
		cur, err := r.client.Cursor(ctx, program)
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		resume := int(cur.Events)
		if resume > idx {
			t.Fatalf("%s: replica claims %d events, primary only acked %d", program, resume, idx)
		}
		if resume%batchEvents != 0 {
			t.Fatalf("%s: resume point %d is not at a record boundary", program, resume)
		}

		// Phase 2: re-send everything the replica does not hold, from the
		// cursor's resume point — including acked-but-unreplicated
		// primary batches, which the client knows only the replica's
		// cursor can adjudicate.
		for off := resume; off < len(events[k]); off += batchEvents {
			ds, err := r.client.Ingest(ctx, program, events[k][off:off+batchEvents])
			if err != nil {
				t.Fatalf("%s: replica ingest at offset %d: %v", program, off, err)
			}
			for i, d := range ds {
				got[k][off+i] = d.Encode()
			}
		}

		// Every decision — primary-acked prefix and post-failover tail —
		// is bitwise-identical to the uncrashed control.
		if !bytes.Equal(got[k], control[k]) {
			for i := range got[k] {
				if got[k][i] != control[k][i] {
					t.Fatalf("%s: decision %d diverges after failover (resume point %d): got %#x want %#x",
						program, i, resume, got[k][i], control[k][i])
				}
			}
		}
	}
}
