package core

// PageUnits is how many units one storage page holds.
const PageUnits = 256

// Pages is per-unit storage that grows one fixed-size page at a time. A unit
// never moves once its page exists: growth allocates the missing page and
// never copies the others, so the heap holds live pages only, and a table
// warming up leaves no copy-growth garbage behind to inflate the GC goal.
// Only the page directory, one pointer per page, is ever copied.
//
// Pages is indexed densely from zero. Pages that no index has touched are
// never allocated, but the directory spans every page up to the highest
// touched one, so callers holding arbitrary IDs map them onto dense slots
// first (internal/server does).
//
// The zero value is empty and ready to use. Pages is not safe for concurrent
// use.
type Pages[T any] struct {
	dir []*[PageUnits]T
}

// At returns unit i, allocating its page on first touch. Per-event loops
// call Get first and fall back to At: Get inlines, At does not.
func (p *Pages[T]) At(i uint32) *T {
	if u := p.Get(i); u != nil {
		return u
	}
	pi := int(i / PageUnits)
	for len(p.dir) <= pi {
		p.dir = append(p.dir, nil)
	}
	pg := new([PageUnits]T)
	p.dir[pi] = pg
	return &pg[i%PageUnits]
}

// Get returns unit i, or nil when its page was never allocated.
func (p *Pages[T]) Get(i uint32) *T {
	if pi := int(i / PageUnits); pi < len(p.dir) {
		if pg := p.dir[pi]; pg != nil {
			return &pg[i%PageUnits]
		}
	}
	return nil
}

// Each calls f for every unit on an allocated page, in index order.
func (p *Pages[T]) Each(f func(i uint32, u *T)) {
	for pi, pg := range p.dir {
		if pg == nil {
			continue
		}
		for j := range pg {
			f(uint32(pi*PageUnits+j), &pg[j])
		}
	}
}
