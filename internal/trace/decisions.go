package trace

import (
	"encoding/binary"
	"fmt"
)

// Decision coalescing for stream sessions. A 'D' frame carries one applied
// event frame's decisions verbatim — a uvarint count followed by one byte per
// event — which is overwhelmingly redundant: the controller changes a unit's
// verdict only at a state transition, so a 1024-event frame typically carries
// a handful of distinct values. The run-length form decodes to exactly the
// bytes the plain frame would have carried:
//
//	'd'  run-length encoded:
//	  count  uvarint  (decision bytes this frame decodes to)
//	  runs:  (runLen uvarint >= 1, value byte) pairs; runLens sum to count
//
// It is self-contained per frame (no state carried across frames), so a lost
// or reordered read cannot desynchronize reconstruction. Worst case (a
// vector that changes every byte) it costs two bytes per decision; the server
// falls back to the plain 'D' form whenever RLE does not strictly shrink the
// payload, which bounds the wire cost at the plain encoding.
//
// The change-list form (AppendDecisionsChanges) is no longer a wire frame; it
// survives only as the benchmark ladder's comparison row.

// AppendDecisionsPlain appends the plain 'D' decisions payload — a uvarint
// count followed by the raw decision bytes — to dst.
func AppendDecisionsPlain(dst []byte, decisions []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...)
	return append(dst, decisions...)
}

// AppendDecisionsRLE appends the run-length-encoded 'd' payload for
// decisions to dst.
func AppendDecisionsRLE(dst []byte, decisions []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...)
	for i := 0; i < len(decisions); {
		j := i + 1
		for j < len(decisions) && decisions[j] == decisions[i] {
			j++
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(j-i))]...)
		dst = append(dst, decisions[i])
		i = j
	}
	return dst
}

// DecodeDecisionsRLE decodes a 'd' payload, appending the reconstructed
// decision bytes to dst and returning the extended slice. Malformed input —
// a zero or overlong run, a truncated pair, trailing bytes — fails with an
// error wrapping ErrBadFrame, and dst is returned unchanged. The declared
// count is capped at MaxFramePayload so a corrupt header cannot force a
// giant allocation.
func DecodeDecisionsRLE(payload []byte, dst []byte) ([]byte, error) {
	base := len(dst)
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: reading RLE decisions count", ErrBadFrame)
	}
	if count > MaxFramePayload {
		return dst, fmt.Errorf("%w: RLE decisions count %d exceeds the %d cap",
			ErrBadFrame, count, uint64(MaxFramePayload))
	}
	off := n
	var got uint64
	for got < count {
		runLen, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return dst[:base], fmt.Errorf("%w: reading RLE run length at byte offset %d (%d of %d decisions decoded)",
				ErrBadFrame, off, got, count)
		}
		off += n
		if runLen == 0 || runLen > count-got {
			return dst[:base], fmt.Errorf("%w: RLE run length %d invalid at byte offset %d (%d of %d decisions decoded)",
				ErrBadFrame, runLen, off, got, count)
		}
		if off >= len(payload) {
			return dst[:base], fmt.Errorf("%w: RLE run value truncated at byte offset %d (%d of %d decisions decoded)",
				ErrBadFrame, off, got, count)
		}
		v := payload[off]
		off++
		for i := uint64(0); i < runLen; i++ {
			dst = append(dst, v)
		}
		got += runLen
	}
	if off != len(payload) {
		return dst[:base], fmt.Errorf("%w: %d trailing bytes after %d RLE decisions",
			ErrBadFrame, len(payload)-off, count)
	}
	return dst, nil
}

// AppendDecisionsChanges appends a change-list encoding of decisions to dst:
//
//	count  uvarint
//	first  byte     (the decision at index 0; absent when count is 0)
//	pairs: (gap uvarint >= 1, value byte) — each pair changes the value at
//	       index lastIndex+gap; indices stay < count; every index between
//	       changes repeats the previous value
//
// No session sends it any more. It serves only the benchmark ladder's
// trace.decisions.change row, and goes with that row when the benchmark
// drops it.
func AppendDecisionsChanges(dst []byte, decisions []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...)
	if len(decisions) == 0 {
		return dst
	}
	dst = append(dst, decisions[0])
	last := 0
	for i := 1; i < len(decisions); i++ {
		if decisions[i] != decisions[last] {
			dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(i-last))]...)
			dst = append(dst, decisions[i])
			last = i
		}
	}
	return dst
}

// DecodeDecisionsChanges decodes an AppendDecisionsChanges payload,
// appending the reconstructed decision bytes to dst and returning the
// extended slice. It is the reference the encoder's round-trip test and
// fuzzer check against, serves only the benchmark ladder's
// trace.decisions.change row, and goes with that row. Malformed input —
// a zero gap, an index at or past count, a truncated pair, trailing bytes —
// fails with an error wrapping ErrBadFrame, and dst is returned unchanged.
// The declared count is capped at MaxFramePayload.
func DecodeDecisionsChanges(payload []byte, dst []byte) ([]byte, error) {
	base := len(dst)
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: reading change-list decisions count", ErrBadFrame)
	}
	if count > MaxFramePayload {
		return dst, fmt.Errorf("%w: change-list decisions count %d exceeds the %d cap",
			ErrBadFrame, count, uint64(MaxFramePayload))
	}
	off := n
	if count == 0 {
		if off != len(payload) {
			return dst, fmt.Errorf("%w: %d trailing bytes after empty change list",
				ErrBadFrame, len(payload)-off)
		}
		return dst, nil
	}
	if off >= len(payload) {
		return dst, fmt.Errorf("%w: change list missing its first decision (count %d)",
			ErrBadFrame, count)
	}
	v := payload[off]
	off++
	dst = append(dst, v)
	idx := uint64(0)
	for off < len(payload) {
		gap, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return dst[:base], fmt.Errorf("%w: reading change gap at byte offset %d (index %d of %d)",
				ErrBadFrame, off, idx, count)
		}
		off += n
		if gap == 0 || gap > count-1-idx {
			return dst[:base], fmt.Errorf("%w: change gap %d invalid at byte offset %d (index %d of %d)",
				ErrBadFrame, gap, off, idx, count)
		}
		if off >= len(payload) {
			return dst[:base], fmt.Errorf("%w: change value truncated at byte offset %d (index %d of %d)",
				ErrBadFrame, off, idx, count)
		}
		nv := payload[off]
		off++
		for i := uint64(1); i < gap; i++ {
			dst = append(dst, v)
		}
		dst = append(dst, nv)
		idx += gap
		v = nv
	}
	for i := idx + 1; i < count; i++ {
		dst = append(dst, v)
	}
	return dst, nil
}
