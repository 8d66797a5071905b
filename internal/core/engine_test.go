package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"reactivespec/internal/trace"
)

// TestParamsValidateBoundsPeriods pins the 2^32-1 cap on every period a
// 32-bit unit window counts, at each entry point: Validate itself,
// NewEngine, NewPolicy and NewPolicySet return the error, and New panics
// with its message.
func TestParamsValidateBoundsPeriods(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams: %v", err)
	}
	edits := map[string]func(*Params){
		"MonitorPeriod": func(p *Params) { p.MonitorPeriod = math.MaxUint32 + 1 },
		"WaitPeriod":    func(p *Params) { p.WaitPeriod = math.MaxUint64 },
		"SampleLen":     func(p *Params) { p.SampleLen = 1 << 40 },
		"SamplePeriod":  func(p *Params) { p.SamplePeriod = 1 << 32 },
	}
	for field, edit := range edits {
		p := testParams()
		edit(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("%s: Validate = %v, want an error naming it", field, err)
		}
		for _, name := range PolicyNames() {
			if _, e := NewEngine(name, p); e == nil || e.Error() != err.Error() {
				t.Fatalf("%s: NewEngine(%s) = %v, want %v", field, name, e, err)
			}
			if _, e := NewPolicy(name, p); e == nil || e.Error() != err.Error() {
				t.Fatalf("%s: NewPolicy(%s) = %v, want %v", field, name, e, err)
			}
			if _, e := NewPolicySet(name, p); e == nil || e.Error() != err.Error() {
				t.Fatalf("%s: NewPolicySet(%s) = %v, want %v", field, name, e, err)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("%s: New panicked with %v, want %q", field, r, err.Error())
				}
			}()
			New(p)
		}()
	}
	p := testParams()
	p.MonitorPeriod, p.WaitPeriod, p.SampleLen, p.SamplePeriod = math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32
	if err := p.Validate(); err != nil {
		t.Fatalf("periods of exactly 2^32-1: %v", err)
	}
}

// TestUnitSizes pins each policy's page entry: the state and the 24 bytes
// of lifetime counters no state determines. A wider window field, a window
// the reactive branch keeps beside another state's instead of sharing its
// words, or a stored copy of a derivable field shows up here first. 72
// bytes is a size class's exact divisor: a 256-unit page is 18,432 B, a
// Go size class, so a reactive or probweight page wastes nothing.
func TestUnitSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"unit", unsafe.Sizeof(unit{}), 56},
		{"reactive branch", unsafe.Sizeof(branch{}), 72},
		{"selftrain unit", unsafe.Sizeof(selfTrainUnit{}), 64},
		{"probweight unit", unsafe.Sizeof(probWeightUnit{}), 72},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestExportDerivesCounters checks, for every policy and every unit, that
// the counters Export derives from unit state match the ones an
// independent tally of the same stream counts from what Step returns:
// verdicts per unit, and transitions per unit from the change of the state
// Step reports (into biased a selection, into retired a retiral, biased to
// monitor an eviction).
func TestExportDerivesCounters(t *testing.T) {
	evs := synthEvents(60_000)
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(name, testParams())
			if err != nil {
				t.Fatal(err)
			}
			want := map[trace.BranchID]*Stats{}
			last := map[trace.BranchID]State{}
			var instr uint64
			for _, ev := range evs {
				gap := uint64(ev.Gap)
				instr += gap
				v, to, _, _ := e.Step(ev.Branch, ev.Taken, gap, instr)
				s := want[ev.Branch]
				if s == nil {
					s = &Stats{}
					want[ev.Branch] = s
				}
				s.Events++
				s.Instrs += gap
				switch v {
				case Correct:
					s.Correct++
				case Misspec:
					s.Misspec++
				default:
					s.NotSpec++
				}
				switch from := last[ev.Branch]; {
				case from == to:
				case to == Biased:
					s.Selections++
				case to == Retired:
					s.Retirals++
				case from == Biased && to == Monitor:
					s.Evictions++
				}
				last[ev.Branch] = to
			}
			var transitions uint64
			for id, w := range want {
				st, got, ok := e.Export(id)
				if !ok {
					t.Fatalf("unit %d: touched but exported nothing", id)
				}
				if got != *w {
					t.Fatalf("unit %d: derived %+v, counted %+v", id, got, *w)
				}
				transitions += w.Selections + w.Evictions + w.Retirals
				clone, _ := NewEngine(name, testParams())
				if err := clone.Import(id, st, got); err != nil {
					t.Fatalf("unit %d: re-import refused: %v", id, err)
				}
			}
			if transitions == 0 {
				t.Fatal("the stream made no transitions; it pins nothing")
			}
		})
	}
}

// TestStatsSumUnits checks, for every policy, that Engine.Stats is exactly
// the sum of Export over the touched units plus what AddInstrs accounted,
// and that a fresh engine importing every unit reports the same Stats
// less those instructions.
func TestStatsSumUnits(t *testing.T) {
	evs := synthEvents(60_000)
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(name, testParams())
			if err != nil {
				t.Fatal(err)
			}
			var instr, outside uint64
			for i, ev := range evs {
				gap := uint64(ev.Gap)
				instr += gap
				if i%3 == 0 {
					// Every third gap goes to the engine, not the unit.
					e.AddInstrs(gap)
					outside += gap
					gap = 0
				}
				e.Step(ev.Branch, ev.Taken, gap, instr)
			}
			var sum Stats
			clone, _ := NewEngine(name, testParams())
			for id := trace.BranchID(0); id < 24; id++ {
				st, s, ok := e.Export(id)
				if !ok {
					t.Fatalf("unit %d untouched", id)
				}
				sum.Add(s)
				if err := clone.Import(id, st, s); err != nil {
					t.Fatalf("unit %d: %v", id, err)
				}
			}
			if sum.Selections == 0 || sum.Events != uint64(len(evs)) {
				t.Fatalf("the stream pins nothing: %+v", sum)
			}
			if got := clone.Stats(); got != sum {
				t.Fatalf("imported engine Stats %+v, want the units' sum %+v", got, sum)
			}
			sum.Instrs += outside
			if got := e.Stats(); got != sum {
				t.Fatalf("Stats %+v, want the units' sum plus AddInstrs %+v", got, sum)
			}
		})
	}
}
