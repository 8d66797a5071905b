package server

import (
	"fmt"
	"sort"
	"sync"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Table is the serving table of speculation-control policies: one partition
// per table key, where the key is a program name, or for a non-branch kind
// the encoded kind-program (trace.EncodeKindProgram). Branch keys are the
// plain program name, so every pre-kind artifact (WAL, snapshot, replication
// stream) is byte-identical.
//
// A partition is the paper's per-program controller (Section 3.2): it owns
// the program's ingest cursor and a dense store of unit state. Client unit
// IDs are arbitrary uint32s, so a slot index (slotIndex) maps each ID onto
// the next free slot the first time it is seen, and unit state lives in
// fixed-size pages indexed by slot (core.Pages): memory follows the units
// actually touched, never the largest ID, and growth never copies a unit.
// Whatever the policy, a partition runs exactly one multi-unit core.Engine
// (for the reactive default, a core.Controller) whose unit IDs are slots:
// one page entry holds a slot's state and its lifetime counters together,
// and is the only place an event is counted (Metrics derives the rest).
//
// Each slot sees exactly the (outcome, instruction-count) sequence an
// independent in-process policy would, so per-unit decisions are
// bit-for-bit identical to it; units never observe each other.
//
// Lock discipline: the table's mutex guards only the key → partition map.
// Each partition has two locks. ingest orders the partition's batches: the
// ingest paths hold it across WAL log → commit → apply, so log order is
// apply order. mu guards the partition's state: apply holds it for writing
// for one batch, and Decide, Metrics and snapshots take it for reading, so
// a decision never waits behind a WAL append or fsync. Lock order: the
// server's applyMu, then ingest, then mu; the table mutex is a leaf.
type Table struct {
	params core.Params
	policy string

	mu    sync.RWMutex
	parts map[string]*partition
}

// partition is one table key's state.
type partition struct {
	key string

	// ingest orders this key's batches across log → commit → apply.
	// Readers never take it.
	ingest sync.Mutex

	// mu guards every field below.
	mu sync.RWMutex
	// instr and events are the ingest cursor: the cumulative dynamic
	// instruction count and the number of events applied. Failover clients
	// resume from events (GET /v1/cursor).
	instr  uint64
	events uint64
	// index maps a client unit ID onto its dense slot.
	index slotIndex
	// engine holds every slot's unit state and lifetime counters; its unit
	// IDs are slots.
	engine core.Engine
}

// NewTable returns a table running the default reactive policy with the
// given controller parameters.
func NewTable(params core.Params) *Table {
	t, err := NewTablePolicy(params, 0, core.PolicyReactive)
	if err != nil {
		panic(err) // the reactive policy is always registered
	}
	return t
}

// NewTablePolicy is NewTable with a registered policy name ("" = reactive).
// It fails on an unknown name or on parameters core.Params.Validate
// rejects. The int argument is unused: it was the retired sharded table's
// stripe count and stays only so existing callers keep compiling.
func NewTablePolicy(params core.Params, _ int, policy string) (*Table, error) {
	if _, err := core.NewEngine(policy, params); err != nil {
		return nil, err
	}
	if policy == "" {
		policy = core.PolicyReactive
	}
	return &Table{params: params, policy: policy, parts: make(map[string]*partition)}, nil
}

// Params returns the controller parameters every unit is created with.
func (t *Table) Params() core.Params { return t.params }

// Policy returns the registered policy name every unit runs.
func (t *Table) Policy() string { return t.policy }

// lookup returns key's partition, or nil when it was never created.
func (t *Table) lookup(key string) *partition {
	t.mu.RLock()
	p := t.parts[key]
	t.mu.RUnlock()
	return p
}

// partition returns key's partition, creating it on first sight.
func (t *Table) partition(key string) *partition {
	if p := t.lookup(key); p != nil {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.parts[key]
	if p == nil {
		e, err := core.NewEngine(t.policy, t.params)
		if err != nil {
			// NewTablePolicy validated the policy and parameters.
			panic(err)
		}
		p = &partition{key: key, engine: e}
		t.parts[key] = p
	}
	return p
}

// partitions returns every partition, in no particular order.
func (t *Table) partitions() []*partition {
	t.mu.RLock()
	out := make([]*partition, 0, len(t.parts))
	for _, p := range t.parts {
		out = append(out, p)
	}
	t.mu.RUnlock()
	return out
}

// sortedPartitions returns every partition, ordered by key.
func (t *Table) sortedPartitions() []*partition {
	out := t.partitions()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Partitions returns how many table keys have a partition.
func (t *Table) Partitions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.parts)
}

// slotIndex maps client unit IDs onto dense slots, assigned in first-seen
// order. Programs number their units densely (the paper's static branches
// are a program's own numbering), so the index has two tiers:
//
//   - a direct window holding slot+1 (0 = absent) for IDs from base upward,
//     in fixed pages of core.PageUnits entries that are allocated on first
//     touch and never copied. base is the page of the first ID the index
//     sees.
//   - far, a map created on first need, for every ID the window may not
//     hold.
//
// A new ID goes into the window iff id ≥ base and id − base < 2n +
// core.PageUnits, n being the slots assigned so far; anything else goes into
// far. The window thus spans fewer than 2n + core.PageUnits IDs, so whatever
// IDs a client sends, its pages cost at most 4 B × (2n + 2·core.PageUnits)
// plus one directory pointer per page. An ID lives in exactly one tier, so
// far is consulted only on a window miss, and for a dense program it stays
// nil: an ID resolves with one bounds check and one load instead of a hash
// probe.
//
// The zero value is empty and ready to use. It is not safe for concurrent
// use; the partition's mu guards it.
type slotIndex struct {
	base uint32 // first ID of the window's page 0, page-aligned
	n    uint32 // slots assigned
	dir  []*[core.PageUnits]uint32
	far  map[trace.BranchID]uint32
}

// window returns id's slot when the window holds it. It makes no call, so
// it inlines into the apply loop, which falls back to miss; a call in here
// would push it past the inlining budget.
func (x *slotIndex) window(id trace.BranchID) (uint32, bool) {
	off := uint32(id) - x.base
	if pi := int(off / core.PageUnits); pi < len(x.dir) {
		if pg := x.dir[pi]; pg != nil {
			if s := pg[off%core.PageUnits]; s != 0 {
				return s - 1, true
			}
		}
	}
	return 0, false
}

// miss returns the slot of an ID the window does not hold, assigning the
// next one on first sight.
func (x *slotIndex) miss(id trace.BranchID) uint32 {
	if s, ok := x.far[id]; ok {
		return s
	}
	return x.add(id)
}

// get returns id's slot, or false when id has none.
func (x *slotIndex) get(id trace.BranchID) (uint32, bool) {
	if s, ok := x.window(id); ok {
		return s, true
	}
	s, ok := x.far[id]
	return s, ok
}

// admits reports whether the window takes id as a new ID (see slotIndex).
// The first ID anchors base at its page, so it is always admitted.
func (x *slotIndex) admits(id trace.BranchID) bool {
	if x.n == 0 {
		return true
	}
	return uint32(id) >= x.base && uint64(uint32(id)-x.base) < 2*uint64(x.n)+core.PageUnits
}

// add assigns the next slot to id, which must have none, and returns it.
func (x *slotIndex) add(id trace.BranchID) uint32 {
	s := x.n
	if x.admits(id) {
		if s == 0 {
			x.base = uint32(id) &^ (core.PageUnits - 1)
		}
		off := uint32(id) - x.base
		pi := int(off / core.PageUnits)
		for len(x.dir) <= pi {
			x.dir = append(x.dir, nil)
		}
		if x.dir[pi] == nil {
			x.dir[pi] = new([core.PageUnits]uint32)
		}
		x.dir[pi][off%core.PageUnits] = s + 1
	} else {
		if x.far == nil {
			x.far = make(map[trace.BranchID]uint32)
		}
		x.far[id] = s
	}
	x.n++
	return s
}

// each calls f for every (ID, slot) pair, window first in ID order, then
// far in map order.
func (x *slotIndex) each(f func(id trace.BranchID, s uint32)) {
	for pi, pg := range x.dir {
		if pg == nil {
			continue
		}
		for j, v := range pg {
			if v != 0 {
				f(trace.BranchID(x.base+uint32(pi*core.PageUnits+j)), v-1)
			}
		}
	}
	for id, s := range x.far {
		f(id, s)
	}
}

// applyLocked observes events in order starting at instruction count instr,
// appending one encoded decision per event to dst, and leaves the cursor
// at the returned instruction count with the events counted. It is the one
// apply path every ingest route ends in. The caller holds p.mu for writing.
func (p *partition) applyLocked(evs []trace.Event, instr uint64, dst []byte) ([]byte, uint64) {
	e := p.engine
	var last, slot trace.BranchID
	for i, ev := range evs {
		if i == 0 || ev.Branch != last {
			last = ev.Branch
			s, ok := p.index.window(ev.Branch)
			if !ok {
				s = p.index.miss(ev.Branch)
			}
			slot = trace.BranchID(s)
		}
		gap := uint64(ev.Gap)
		instr += gap
		var d Decision
		d.Verdict, d.State, d.Dir, d.Live = e.Step(slot, ev.Taken, gap, instr)
		dst = append(dst, d.Encode())
	}
	p.instr = instr
	p.events += uint64(len(evs))
	return dst, instr
}

// apply runs events from the partition's own cursor under one write-lock
// hold and returns the extended dst.
func (p *partition) apply(evs []trace.Event, dst []byte) []byte {
	p.mu.Lock()
	dst, _ = p.applyLocked(evs, p.instr, dst)
	p.mu.Unlock()
	return dst
}

// applyFrame is apply over a validated wire frame payload, decoded into a
// pooled scratch slice before the lock is taken.
func (p *partition) applyFrame(payload []byte, dst []byte) []byte {
	evp := decodeFrame(payload)
	dst = p.apply(*evp, dst)
	releaseFrame(evp)
	return dst
}

// cursor returns the partition's ingest position.
func (p *partition) cursor() (instr, events uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.instr, p.events
}

// decide reads unit id's current decision without observing an event.
func (p *partition) decide(id trace.BranchID) Decision {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.index.get(id)
	if !ok {
		return Decision{State: core.Monitor}
	}
	st, dir, live := p.engine.Decide(trace.BranchID(s))
	return Decision{State: st, Dir: dir, Live: live}
}

// exportLocked appends every touched unit's snapshot entry, sorted by unit
// ID, to out. The caller holds p.mu.
func (p *partition) exportLocked(out []EntrySnapshot) []EntrySnapshot {
	start := len(out)
	p.index.each(func(id trace.BranchID, s uint32) {
		if st, stats, ok := p.engine.Export(trace.BranchID(s)); ok {
			out = append(out, EntrySnapshot{Program: p.key, Branch: id, State: st, Stats: stats})
		}
	})
	mine := out[start:]
	sort.Slice(mine, func(i, j int) bool { return mine[i].Branch < mine[j].Branch })
	return out
}

// restoreLocked overwrites unit id's state and lifetime counters, or
// leaves the partition untouched and returns the engine's refusal of state
// it cannot hold exactly. The caller holds p.mu for writing.
func (p *partition) restoreLocked(id trace.BranchID, st core.BranchState, stats core.Stats) error {
	s, known := p.index.get(id)
	if !known {
		s = p.index.n
	}
	if err := p.engine.Import(trace.BranchID(s), st, stats); err != nil {
		return fmt.Errorf("server: restoring unit %d of %q: %w", id, p.key, err)
	}
	if !known {
		p.index.add(id)
	}
	return nil
}

// Apply observes one dynamic event for program at global instruction count
// instr (the count at the event, its gap included) and returns the
// resulting decision. It is ApplyBatch over one event.
func (t *Table) Apply(program string, ev trace.Event, instr uint64) Decision {
	evs := [1]trace.Event{ev}
	var buf [1]byte
	out, _ := t.ApplyBatch(program, evs[:], instr-uint64(ev.Gap), buf[:0])
	d, _ := DecodeDecision(out[0])
	return d
}

// ApplyBatch observes a run of dynamic events for program, in order,
// starting at global instruction count startInstr, appending one encoded
// decision byte per event to dst. It returns the extended slice and the
// instruction count after the last event, which also becomes the
// partition's cursor. The whole batch runs under one hold of the
// partition's write lock; a run of consecutive events for the same unit
// resolves its slot once.
//
// Events for the same program must not be applied concurrently from
// different goroutines (the server's ingest lock guarantees this); batches
// for different programs run in parallel.
func (t *Table) ApplyBatch(program string, events []trace.Event, startInstr uint64, dst []byte) ([]byte, uint64) {
	p := t.partition(program)
	p.mu.Lock()
	dst, instr := p.applyLocked(events, startInstr, dst)
	p.mu.Unlock()
	return dst, instr
}

// ApplyBatchKind is ApplyBatch with an explicit speculation kind: the kind
// is encoded into the table key (trace.EncodeKindProgram), so kind=branch is
// byte-identical to ApplyBatch on the plain program name.
func (t *Table) ApplyBatchKind(program string, kind trace.Kind, events []trace.Event, startInstr uint64, dst []byte) ([]byte, uint64) {
	return t.ApplyBatch(trace.EncodeKindProgram(kind, program), events, startInstr, dst)
}

// frameEventsPool holds the reusable []trace.Event scratch frame payloads
// decode into; steady state it allocates nothing.
var frameEventsPool = sync.Pool{New: func() any { return new([]trace.Event) }}

// decodeFrame decodes a validated frame payload into a pooled scratch slice;
// hand it back with releaseFrame once the events are applied.
func decodeFrame(payload []byte) *[]trace.Event {
	evp := frameEventsPool.Get().(*[]trace.Event)
	evs, err := trace.DecodeFrameAppend(payload, (*evp)[:0])
	if err != nil {
		// Unreachable for validated payloads; fail loudly rather than
		// apply a prefix of a corrupt frame.
		frameEventsPool.Put(evp)
		panic("server: applying an unvalidated frame payload: " + err.Error())
	}
	*evp = evs
	return evp
}

func releaseFrame(evp *[]trace.Event) {
	*evp = (*evp)[:0]
	frameEventsPool.Put(evp)
}

// ApplyFrame is ApplyBatch over a validated wire frame payload: it decodes
// the payload into a pooled scratch slice (amortized zero-alloc — the
// events never escape the call) and applies it as one batch. The payload
// must already have passed trace.ValidateFrame, so rejection happens before
// any state mutates.
//
// The decisions, the final instruction count, and every counter are
// bit-for-bit what ApplyBatch(program, DecodeFrame(payload), ...) would
// produce (TestApplyFrameMatchesApplyBatch pins this).
func (t *Table) ApplyFrame(program string, payload []byte, startInstr uint64, dst []byte) ([]byte, uint64) {
	evp := decodeFrame(payload)
	dst, instr := t.ApplyBatch(program, *evp, startInstr, dst)
	releaseFrame(evp)
	return dst, instr
}

// Decide returns the unit's current classification without observing an
// event. Unknown keys and units report the Monitor default and are not
// created. It takes only read locks, so concurrent deciders never
// serialize against each other, and never wait behind a WAL append.
func (t *Table) Decide(program string, id trace.BranchID) Decision {
	p := t.lookup(program)
	if p == nil {
		return Decision{State: core.Monitor}
	}
	return p.decide(id)
}

// DecideKind is Decide with an explicit speculation kind.
func (t *Table) DecideKind(program string, kind trace.Kind, id trace.BranchID) Decision {
	return t.Decide(trace.EncodeKindProgram(kind, program), id)
}

// Metrics derives the whole table's counters from its units. Under each
// partition's read lock it sums the engine's page walk (core.Engine.Stats)
// and reads the state of every assigned slot, so it costs O(units) and
// never delays a Decide. Like the units, the result covers the table's
// whole restored state, not just this process's ingest.
func (t *Table) Metrics() TableMetrics {
	var m TableMetrics
	for _, p := range t.partitions() {
		p.mu.RLock()
		m.Stats.Add(p.engine.Stats())
		for s := uint32(0); s < p.index.n; s++ {
			st, _, _ := p.engine.Decide(trace.BranchID(s))
			m.Units[st]++
		}
		m.Entries += uint64(p.index.n)
		p.mu.RUnlock()
	}
	return m
}

// Events returns how many events the table has applied: the sum of the
// partitions' cursors, so it costs O(partitions).
func (t *Table) Events() uint64 {
	var n uint64
	for _, p := range t.partitions() {
		_, events := p.cursor()
		n += events
	}
	return n
}

// EntrySnapshot is the serialized state of one (program, unit) entry. The
// Program field is the table key — for non-branch kinds, the encoded
// kind-program.
type EntrySnapshot struct {
	Program string
	Branch  trace.BranchID
	State   core.BranchState
	Stats   core.Stats
}

// SnapshotEntries exports every touched unit, sorted by (program, unit) so
// snapshots are deterministic.
func (t *Table) SnapshotEntries() []EntrySnapshot {
	_, entries := t.snapshot()
	return entries
}

// snapshot exports every partition's cursor and touched units, each sorted
// by key. Each partition is captured atomically under its read lock, so its
// cursor always matches its units; concurrent ingest into other partitions
// yields per-partition (not cross-partition) consistency, which suffices
// because partitions never observe each other.
func (t *Table) snapshot() ([]CursorSnapshot, []EntrySnapshot) {
	parts := t.sortedPartitions()
	cursors := make([]CursorSnapshot, 0, len(parts))
	var entries []EntrySnapshot
	for _, p := range parts {
		p.mu.RLock()
		cursors = append(cursors, CursorSnapshot{Program: p.key, Instr: p.instr, Events: p.events})
		entries = p.exportLocked(entries)
		p.mu.RUnlock()
	}
	return cursors, entries
}

// RestoreEntries imports previously exported entries, overwriting any
// existing state for the same units. It stops at the first entry the
// policy cannot hold exactly and returns an error wrapping the engine's
// *core.StateError; the entries before it stay imported.
func (t *Table) RestoreEntries(entries []EntrySnapshot) error {
	var p *partition
	defer func() {
		if p != nil {
			p.mu.Unlock()
		}
	}()
	for _, es := range entries {
		if p == nil || p.key != es.Program {
			if p != nil {
				p.mu.Unlock()
			}
			p = t.partition(es.Program)
			p.mu.Lock()
		}
		if err := p.restoreLocked(es.Branch, es.State, es.Stats); err != nil {
			return err
		}
	}
	return nil
}

// restoreCursor sets key's ingest position.
func (t *Table) restoreCursor(key string, instr, events uint64) {
	p := t.partition(key)
	p.mu.Lock()
	p.instr, p.events = instr, events
	p.mu.Unlock()
}
