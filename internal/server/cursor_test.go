package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// TestCursorMatchesAcrossIngestPaths pins cursor accounting on every route
// events can take into a partition: after the same batches arrive by any of
// them, GET /v1/cursor and the snapshot's cursor report the same
// instruction count and event count. Failover clients resume from the
// event count, so no route may skip it.
func TestCursorMatchesAcrossIngestPaths(t *testing.T) {
	const program = "gzip"
	batches := streamBatches(synthEvents(6000, 23), 700)
	var want CursorSnapshot
	want.Program = program
	for _, b := range batches {
		for _, ev := range b {
			want.Instr += uint64(ev.Gap)
			want.Events++
		}
	}
	ctx := context.Background()

	// streamOver runs every batch through one session.
	streamOver := func(t *testing.T, st *Stream) {
		t.Helper()
		runSession(t, st, batches)
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	// dialListener serves raw stream sessions on ln and dials one.
	dialListener := func(t *testing.T, s *Server, c *Client, ln net.Listener, addr string) *Stream {
		t.Helper()
		t.Cleanup(func() { ln.Close() })
		go s.ServeStream(ln)
		info, err := c.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := ParseInfoParamsHash(info)
		if err != nil {
			t.Fatal(err)
		}
		st, err := DialStream(ctx, addr, program, hash, WithStreamWindow(4))
		if err != nil {
			t.Fatalf("DialStream: %v", err)
		}
		return st
	}

	for _, tc := range []struct {
		name string
		// run delivers the batches and returns the server (and a client
		// for it) whose cursor is checked.
		run func(t *testing.T, snapDir string) (*Server, *Client)
	}{
		{"post-v1", func(t *testing.T, snapDir string) (*Server, *Client) {
			s, c := newTestServer(t, Config{SnapshotDir: snapDir})
			for _, b := range batches {
				if _, err := c.Ingest(ctx, program, b); err != nil {
					t.Fatal(err)
				}
			}
			return s, c
		}},
		{"post-v2", func(t *testing.T, snapDir string) (*Server, *Client) {
			s, c := newTestServer(t, Config{SnapshotDir: snapDir})
			h := s.Handler()
			for _, b := range batches {
				req, err := http.NewRequest(http.MethodPost, "/v2/ingest?program="+program+"&kind=branch",
					bytes.NewReader(trace.AppendFrame(nil, b)))
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Fatalf("POST /v2/ingest: status %d: %s", w.Code, w.Body.String())
				}
			}
			return s, c
		}},
		{"stream-upgrade", func(t *testing.T, snapDir string) (*Server, *Client) {
			s, c := newTestServer(t, Config{SnapshotDir: snapDir})
			st, err := c.OpenStream(ctx, program, WithStreamWindow(4))
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			streamOver(t, st)
			return s, c
		}},
		{"stream-tcp", func(t *testing.T, snapDir string) (*Server, *Client) {
			s, c := newTestServer(t, Config{SnapshotDir: snapDir})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			streamOver(t, dialListener(t, s, c, ln, ln.Addr().String()))
			return s, c
		}},
		{"stream-unix", func(t *testing.T, snapDir string) (*Server, *Client) {
			s, c := newTestServer(t, Config{SnapshotDir: snapDir})
			path := filepath.Join(t.TempDir(), "s.sock")
			ln, err := net.Listen("unix", path)
			if err != nil {
				t.Fatal(err)
			}
			streamOver(t, dialListener(t, s, c, ln, "unix://"+path))
			return s, c
		}},
		{"replica-apply", func(t *testing.T, snapDir string) (*Server, *Client) {
			env := newWALEnv(t)
			l := env.openLog(t, wal.SyncAlways)
			t.Cleanup(func() { l.Close() })
			s, c := newTestServer(t, Config{SnapshotDir: snapDir, WAL: l, Replica: true})
			for _, b := range batches {
				if err := s.ApplyReplicated(program, b, 0); err != nil {
					t.Fatal(err)
				}
			}
			return s, c
		}},
		{"wal-recovery", func(t *testing.T, snapDir string) (*Server, *Client) {
			env := newWALEnv(t)
			l := env.openLog(t, wal.SyncAlways)
			_, vc := newTestServer(t, Config{WAL: l})
			for _, b := range batches {
				if _, err := vc.Ingest(ctx, program, b); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2 := env.openLog(t, wal.SyncAlways)
			t.Cleanup(func() { l2.Close() })
			s, c := newTestServer(t, Config{SnapshotDir: snapDir, WAL: l2})
			res, err := s.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if res.ReplayedEvents != want.Events {
				t.Fatalf("replayed %d events, want %d", res.ReplayedEvents, want.Events)
			}
			return s, c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapDir := t.TempDir()
			s, c := tc.run(t, snapDir)
			cur, err := c.Cursor(ctx, program)
			if err != nil {
				t.Fatal(err)
			}
			if got := (CursorSnapshot{Program: cur.Program, Instr: cur.Instr, Events: cur.Events}); got != want {
				t.Fatalf("/v1/cursor %+v, want %+v", got, want)
			}
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			snap, err := LoadSnapshot(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(snap.Cursors); got != fmt.Sprint([]CursorSnapshot{want}) {
				t.Fatalf("snapshot cursors %s, want [%+v]", got, want)
			}
		})
	}
}
