package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// TestSnapshotBytesGolden pins the snapshotVersion 1 file bytes: a fixed
// ingest history — two programs over POST /v1, one non-branch kind over
// /v2, and a streaming session that never sends a frame —
// must snapshot to exactly the bytes the format has always produced, for
// every policy. A change here is a snapshot format change.
func TestSnapshotBytesGolden(t *testing.T) {
	golden := map[string]string{
		core.PolicyReactive:   "87e0c8772db7d549b3744c1f073ffc91f7b3e3ce400da6477e2e7c7613f07af3",
		core.PolicySelfTrain:  "c6876de22e4d84c4dda1af62e1d687f1244724b0b74b3860e6482194bbb5a08c",
		core.PolicyProbWeight: "bb464b81a66ed15dfac7844f72624fd0179f2fbf60bb81220c69dbf6730e0d76",
	}
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			s, c := newTestServer(t, Config{SnapshotDir: dir, Policy: policy})
			goldenHistory(t, c)
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(snapshotPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != golden[policy] {
				t.Fatalf("snapshot bytes sha256 %s, want %s", got, golden[policy])
			}
		})
	}
}

// goldenHistory drives TestSnapshotBytesGolden's fixed ingest history
// through c: two programs over POST /v1, one non-branch kind over /v2, and
// a streaming session that never sends a frame.
func goldenHistory(t *testing.T, c *Client) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.Ingest(ctx, "gzip", synthEvents(9000, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "vpr", synthEvents(7000, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "gzip", synthEvents(3000, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestKind(ctx, "gzip", trace.KindValue, synthEvents(5000, 4)); err != nil {
		t.Fatal(err)
	}
	idle, err := c.OpenStream(ctx, "idle")
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
}
