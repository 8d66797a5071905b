package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// TestSnapshotRestoresAcrossVersions pins restore against snapshot files an
// earlier build wrote: testdata/golden-<policy>.snap is goldenHistory's
// snapshot as written when every unit kept all of its lifetime counters
// and 64-bit window fields. Each file must restore, re-snapshot to the same
// bytes, and then decide a continuation exactly as a server that ingested
// the history itself and never restarted.
func TestSnapshotRestoresAcrossVersions(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", "golden-"+policy+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(snapshotPath(dir), old, 0o644); err != nil {
				t.Fatal(err)
			}
			restored, rc := newTestServer(t, Config{SnapshotDir: dir, Policy: policy})
			res, err := restored.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if !res.SnapshotRestored {
				t.Fatal("the snapshot was not restored")
			}
			if _, err := restored.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			again, err := os.ReadFile(snapshotPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sha256.Sum256(again), sha256.Sum256(old); got != want {
				t.Fatalf("re-snapshot sha256 %x, want the restored file's %x", got, want)
			}

			uninterrupted, uc := newTestServer(t, Config{Policy: policy})
			goldenHistory(t, uc)
			got := continuation(t, rc)
			want := continuation(t, uc)
			if !bytes.Equal(got, want) {
				t.Fatal("decisions after the restore diverge from the uninterrupted server")
			}
			a, b := restored.Table().SnapshotEntries(), uninterrupted.Table().SnapshotEntries()
			if len(a) != len(b) {
				t.Fatalf("%d entries after the continuation, uninterrupted %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("entry %d: %+v, uninterrupted %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// continuation ingests more events for every program goldenHistory touched
// and returns the encoded decisions.
func continuation(t *testing.T, c *Client) []byte {
	t.Helper()
	ctx := context.Background()
	var out []byte
	keep := func(ds []Decision, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			out = append(out, d.Encode())
		}
	}
	keep(c.Ingest(ctx, "gzip", synthEvents(6000, 11)))
	keep(c.Ingest(ctx, "vpr", synthEvents(6000, 12)))
	keep(c.IngestKind(ctx, "gzip", trace.KindValue, synthEvents(6000, 13)))
	keep(c.Ingest(ctx, "idle", synthEvents(2000, 14)))
	return out
}

// TestRestoreRefusesInexactState hand-builds snapshots that break one
// restore invariant each — a window field wider than 32 bits, a field the
// policy does not keep, lifetime counters that contradict the unit's state,
// or a field the reactive branch derives from its state that differs from
// the derived value — and requires Server.Recover to fail with the
// engine's *core.StateError naming that field, instead of truncating or
// re-deriving.
func TestRestoreRefusesInexactState(t *testing.T) {
	// A consistent reactive unit: 40 executions, biased twice, evicted
	// once; its counters are exactly the ones the engine derives, and it
	// holds only the biased state's eviction counter.
	base := core.BranchState{
		State: core.Biased, LiveDir: true, LiveUntil: math.MaxUint64,
		Direction: true, Counter: 7,
		Execs: 40, OptCount: 2, Evictions: 1, EverBiased: true,
	}
	baseStats := core.Stats{Events: 40, Instrs: 400, Correct: 20, Misspec: 5, NotSpec: 15, Selections: 2, Evictions: 1}
	// toMonitor turns base into the same unit consistently in a monitor
	// window: evicted twice, so its stale counter is the threshold.
	toMonitor := func(st *core.BranchState, s *core.Stats) {
		st.State, st.MonSeen, st.MonExecs, st.MonTaken = core.Monitor, 3, 3, 2
		st.Counter = testParams().EvictThreshold
		st.Evictions, s.Evictions = 2, 2
	}

	cases := []struct {
		name   string
		policy string
		field  string
		edit   func(st *core.BranchState, s *core.Stats)
	}{
		{"window wider than 32 bits", core.PolicyReactive, "MonSeen",
			func(st *core.BranchState, s *core.Stats) { toMonitor(st, s); st.MonSeen = 1 << 32 }},
		{"wait wider than 32 bits", core.PolicyReactive, "WaitLeft",
			func(st *core.BranchState, s *core.Stats) {
				toMonitor(st, s)
				st.State, st.MonSeen, st.MonExecs, st.MonTaken = core.Unbiased, 0, 0, 0
				st.WaitLeft = math.MaxUint32 + 7
			}},
		{"field the policy does not keep", core.PolicyReactive, "ProbEst",
			func(st *core.BranchState, _ *core.Stats) { st.ProbEst = 0.75 }},
		{"monitor window outside monitor", core.PolicyReactive, "MonTaken",
			func(st *core.BranchState, _ *core.Stats) { st.MonTaken = 2 }},
		{"wait outside unbiased", core.PolicyReactive, "WaitLeft",
			func(st *core.BranchState, s *core.Stats) { toMonitor(st, s); st.WaitLeft = 5 }},
		{"sampling fields in counter mode", core.PolicyReactive, "SmpWrong",
			func(st *core.BranchState, _ *core.Stats) { st.SmpWrong = 1 }},
		{"stale counter differs from the threshold", core.PolicyReactive, "Counter",
			func(st *core.BranchState, s *core.Stats) { toMonitor(st, s); st.Counter = 7 }},
		{"evictions differ from optimizations less the biased one", core.PolicyReactive, "Evictions",
			func(st *core.BranchState, s *core.Stats) { st.Evictions, s.Evictions = 2, 2 }},
		{"EverBiased differs from a nonzero OptCount", core.PolicyReactive, "EverBiased",
			func(st *core.BranchState, _ *core.Stats) { st.EverBiased = false }},
		{"biased without a selection", core.PolicyReactive, "OptCount",
			func(st *core.BranchState, s *core.Stats) {
				st.OptCount, st.Evictions, st.EverBiased = 0, 0, false
				s.Selections, s.Evictions = 0, 0
			}},
		{"events differ from execs", core.PolicyReactive, "Stats.Events",
			func(_ *core.BranchState, s *core.Stats) { s.Events++ }},
		{"correct plus misspec exceed execs", core.PolicyReactive, "Stats.Correct",
			func(_ *core.BranchState, s *core.Stats) { s.Correct, s.Misspec, s.NotSpec = 30, 20, 0 }},
		{"wrong not-speculated count", core.PolicyReactive, "Stats.NotSpec",
			func(_ *core.BranchState, s *core.Stats) { s.NotSpec-- }},
		{"selections differ from optimizations", core.PolicyReactive, "Stats.Selections",
			func(_ *core.BranchState, s *core.Stats) { s.Selections = 3 }},
		{"evictions mismatched", core.PolicyReactive, "Stats.Evictions",
			func(_ *core.BranchState, s *core.Stats) { s.Evictions = 0 }},
		{"retiral without the retired state", core.PolicyReactive, "Stats.Retirals",
			func(_ *core.BranchState, s *core.Stats) { s.Retirals = 1 }},
		{"retired state without its retiral", core.PolicyReactive, "Stats.Retirals",
			func(st *core.BranchState, _ *core.Stats) { st.State = core.Retired }},
		{"selftrain selection without EverBiased", core.PolicySelfTrain, "Stats.Selections",
			func(st *core.BranchState, s *core.Stats) {
				*st = core.BranchState{State: core.Unbiased, MonSeen: 10, MonTaken: 5, Execs: 40}
				*s = core.Stats{Events: 40, NotSpec: 40, Selections: 1}
			}},
		{"probweight warmup wider than 32 bits", core.PolicyProbWeight, "MonSeen",
			func(st *core.BranchState, s *core.Stats) {
				*st = core.BranchState{State: core.Monitor, MonSeen: 1 << 40, Execs: 40, ProbEst: 0.5}
				*s = core.Stats{Events: 40, NotSpec: 40}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, stats := base, baseStats
			tc.edit(&st, &stats)
			dir := t.TempDir()
			snap := &Snapshot{
				Version: snapshotVersion,
				Params:  testParams(),
				Policy:  tc.policy,
				Cursors: []CursorSnapshot{{Program: "p", Instr: 1000, Events: 40}},
				Entries: []EntrySnapshot{{Program: "p", Branch: 9, State: st, Stats: stats}},
			}
			if err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
			s := New(Config{Params: testParams(), Policy: tc.policy, SnapshotDir: dir})
			_, err := s.Recover()
			var se *core.StateError
			if !errors.As(err, &se) {
				t.Fatalf("Recover error %v, want a *core.StateError", err)
			}
			if se.Field != tc.field {
				t.Fatalf("refused field %q (%v), want %q", se.Field, err, tc.field)
			}
			if !strings.Contains(err.Error(), "unit 9") {
				t.Fatalf("error %q does not name the unit", err)
			}
		})
	}

	// The unedited unit restores and exports exactly as written.
	tab := NewTable(testParams())
	if err := tab.RestoreEntries([]EntrySnapshot{{Program: "p", Branch: 9, State: base, Stats: baseStats}}); err != nil {
		t.Fatal(err)
	}
	if got := tab.SnapshotEntries(); len(got) != 1 || got[0].State != base || got[0].Stats != baseStats {
		t.Fatalf("round trip exported %+v", got)
	}
}

// TestNewTablePolicyRejectsWidePeriods: a table refuses parameters whose
// periods its 32-bit unit windows cannot count.
func TestNewTablePolicyRejectsWidePeriods(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		p := testParams()
		p.SamplePeriod = 1 << 32
		if _, err := NewTablePolicy(p, 0, policy); err == nil || !strings.Contains(err.Error(), "SamplePeriod") {
			t.Fatalf("%s: NewTablePolicy error %v, want the SamplePeriod bound", policy, err)
		}
	}
}
