package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// decisionVectors covers the shapes that matter for coalescing: empty, one
// byte, constant runs, alternating worst case, and mixed run structure.
func decisionVectors() map[string][]byte {
	long := make([]byte, 4096)
	for i := range long {
		long[i] = byte((i / 97) % 5)
	}
	alternating := make([]byte, 257)
	for i := range alternating {
		alternating[i] = byte(i % 2)
	}
	rnd := rand.New(rand.NewSource(42))
	random := make([]byte, 1023)
	for i := range random {
		random[i] = byte(rnd.Intn(4))
	}
	return map[string][]byte{
		"empty":       {},
		"one":         {3},
		"constant":    bytes.Repeat([]byte{1}, 1024),
		"two runs":    append(bytes.Repeat([]byte{0}, 100), bytes.Repeat([]byte{2}, 100)...),
		"alternating": alternating,
		"long mixed":  long,
		"random":      random,
	}
}

func TestDecisionsRLERoundTrip(t *testing.T) {
	for name, want := range decisionVectors() {
		enc := AppendDecisionsRLE(nil, want)
		got, err := DecodeDecisionsRLE(enc, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip changed the bytes: got %d, want %d", name, len(got), len(want))
		}
		// Appending must extend dst, not clobber it.
		prefix := []byte{9, 9}
		got, err = DecodeDecisionsRLE(enc, prefix)
		if err != nil {
			t.Fatalf("%s: decode with prefix: %v", name, err)
		}
		if !bytes.Equal(got[:2], []byte{9, 9}) || !bytes.Equal(got[2:], want) {
			t.Fatalf("%s: append semantics broken", name)
		}
	}
}

func TestDecisionsChangesRoundTrip(t *testing.T) {
	for name, want := range decisionVectors() {
		enc := AppendDecisionsChanges(nil, want)
		got, err := DecodeDecisionsChanges(enc, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip changed the bytes: got %d, want %d", name, len(got), len(want))
		}
	}
}

// TestDecisionsCoalescedShrink pins the point of coalescing: on a run-heavy
// vector both forms beat the plain payload, and on a constant tail the change
// list beats RLE.
func TestDecisionsCoalescedShrink(t *testing.T) {
	v := bytes.Repeat([]byte{1}, 1024)
	plain := AppendDecisionsPlain(nil, v)
	rle := AppendDecisionsRLE(nil, v)
	changes := AppendDecisionsChanges(nil, v)
	if len(rle) >= len(plain) || len(changes) >= len(plain) {
		t.Fatalf("coalescing did not shrink a constant vector: plain %d, rle %d, changes %d",
			len(plain), len(rle), len(changes))
	}
	if len(changes) >= len(rle) {
		t.Fatalf("change list (%d bytes) should beat RLE (%d bytes) on a constant vector",
			len(changes), len(rle))
	}
}

// uv encodes one uvarint into a freshly allocated slice so test cases never
// alias each other's backing arrays.
func uv(v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append([]byte(nil), b[:binary.PutUvarint(b[:], v)]...)
}

func TestDecodeDecisionsRLERejectsDamage(t *testing.T) {
	good := AppendDecisionsRLE(nil, []byte{1, 1, 2, 2, 2, 3})
	cases := map[string][]byte{
		"empty":         {},
		"truncated run": good[:len(good)-1],
		"count only":    good[:1],
		"trailing":      append(append([]byte{}, good...), 0),
		// A zero run length can never advance the decode.
		"zero run": append(uv(2), 0, 7, 2, 7),
		// Runs that overshoot the declared count.
		"overlong run": append(uv(2), 3, 7),
		// A count beyond the payload cap must be rejected before allocating.
		"giant count": uv(MaxFramePayload + 1),
	}
	for name, enc := range cases {
		dst := []byte{42}
		got, err := DecodeDecisionsRLE(enc, dst)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("%s: dst changed on error: %v", name, got)
		}
	}
}

func TestDecodeDecisionsChangesRejectsDamage(t *testing.T) {
	good := AppendDecisionsChanges(nil, []byte{1, 1, 2, 2, 3})
	cases := map[string][]byte{
		"empty":           {},
		"truncated pair":  good[:len(good)-1],
		"missing first":   uv(3),
		"trailing empty":  append(uv(0), 9),
		"zero gap":        append(uv(3), 5, 0, 6),
		"gap past count":  append(uv(3), 5, 3, 6),
		"truncated value": append(uv(3), 5, 2),
		"giant count":     uv(MaxFramePayload + 1),
	}
	for name, enc := range cases {
		dst := []byte{42}
		got, err := DecodeDecisionsChanges(enc, dst)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("%s: dst changed on error: %v", name, got)
		}
	}
}

// FuzzDecisionsRLE differentially checks the RLE codec: every encoded vector
// decodes back to itself, and arbitrary payload bytes either decode cleanly
// or fail wrapping ErrBadFrame without touching dst.
func FuzzDecisionsRLE(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 2, 3})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 300))
	// Truncation-seeded raw payloads.
	enc := AppendDecisionsRLE(nil, []byte{1, 1, 2, 3, 3, 3})
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:1])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential: encode(data) must decode back to data exactly.
		enc := AppendDecisionsRLE(nil, data)
		dec, err := DecodeDecisionsRLE(enc, nil)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip changed the bytes: %d != %d", len(dec), len(data))
		}
		// Coalescing must never beat the information content: every run is
		// at least two bytes, so the encoding never exceeds count+header and
		// the fallback comparison in the server stays sound.
		if len(enc) > binary.MaxVarintLen64+2*len(data) {
			t.Fatalf("encoding blew up: %d bytes for %d decisions", len(enc), len(data))
		}
		// Robustness: data as a raw payload must decode or reject cleanly.
		dst := []byte{99}
		got, err := DecodeDecisionsRLE(data, dst)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
			}
			if len(got) != 1 || got[0] != 99 {
				t.Fatalf("dst changed on error")
			}
		}
	})
}

// FuzzDecisionsChanges is FuzzDecisionsRLE for the change-list codec.
func FuzzDecisionsChanges(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 2, 3})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 300))
	enc := AppendDecisionsChanges(nil, []byte{1, 1, 2, 3, 3, 3})
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:1])

	f.Fuzz(func(t *testing.T, data []byte) {
		enc := AppendDecisionsChanges(nil, data)
		dec, err := DecodeDecisionsChanges(enc, nil)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip changed the bytes: %d != %d", len(dec), len(data))
		}
		dst := []byte{99}
		got, err := DecodeDecisionsChanges(data, dst)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
			}
			if len(got) != 1 || got[0] != 99 {
				t.Fatalf("dst changed on error")
			}
		}
	})
}
