package trace

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Kind names which speculation behavior an event stream describes. The paper
// (Section 2) reports the reactive model generalizes beyond conditional
// branches to load-value invariance, silent stores / memory dependences, and
// thread-level speculation; this tag lets one serving stack carry all four.
//
// Every kind is a stream of boolean outcomes over unit IDs: a branch's
// taken/not-taken, a load's value matching the speculated constant, a
// dependence pair staying conflict-free, a TLS epoch committing without a
// violation. The Event encoding therefore stays identical across kinds —
// only the tag differs.
type Kind uint8

const (
	// KindBranch is conditional-branch direction speculation — the paper's
	// primary subject and the wire default (untagged events are branches).
	KindBranch Kind = 0
	// KindValue is load-value invariance speculation (internal/values).
	KindValue Kind = 1
	// KindMemdep is memory-dependence speculation (internal/memdep).
	KindMemdep Kind = 2
	// KindTLSpec is thread-level speculation (internal/tlspec): per
	// dependence pair, "this pair never conflicts across iterations".
	KindTLSpec Kind = 3

	// KindCount bounds the valid kinds; Kind values >= KindCount are
	// rejected at every API boundary.
	KindCount = 4
)

var kindNames = [KindCount]string{"branch", "value", "memdep", "tlspec"}

// String returns the kind's wire name ("branch", "value", "memdep",
// "tlspec"), or "kind(N)" for out-of-range values.
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k names one of the defined kinds.
func (k Kind) Valid() bool { return k < KindCount }

// KindNames lists the valid kind names in Kind order.
func KindNames() []string {
	out := make([]string, KindCount)
	copy(out, kindNames[:])
	return out
}

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for i, name := range kindNames {
		if s == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown speculation kind %q (want one of %s)",
		s, strings.Join(kindNames[:], ", "))
}

// Kind-program encoding.
//
// The server's table, WAL, replication channel, cursors and snapshots all key
// state by an opaque program string. Rather than widen every one of those
// formats with a kind field, the kind rides inside the program key:
//
//	branch      plain program name — byte-identical to every pre-kind
//	            artifact, so existing WAL segments, snapshots and
//	            replication peers are unchanged
//	non-branch  "\x00" + kind byte + program name
//
// Program names arriving over the API are rejected if they contain NUL, so
// an encoded non-branch key can never collide with a client-chosen name.

// kindProgramPrefix marks an encoded non-branch program key.
const kindProgramPrefix = byte(0x00)

// EncodeKindProgram returns the table/WAL key for (kind, program).
func EncodeKindProgram(kind Kind, program string) string {
	if kind == KindBranch {
		return program
	}
	return string([]byte{kindProgramPrefix, byte(kind)}) + program
}

// SplitKindProgram inverts EncodeKindProgram. Keys that do not carry the
// non-branch prefix decode as (KindBranch, key).
func SplitKindProgram(key string) (Kind, string) {
	if len(key) >= 2 && key[0] == kindProgramPrefix {
		return Kind(key[1]), key[2:]
	}
	return KindBranch, key
}

// ValidProgramName reports whether a client-supplied program name may enter
// the table: non-branch kind-program keys are carved out of the NUL-prefixed
// namespace, so names containing NUL are refused at the API boundary.
func ValidProgramName(program string) bool {
	return strings.IndexByte(program, kindProgramPrefix) < 0
}

// AppendKind appends the kind tag — one uvarint — that follows the trace
// context in an 'E' frame payload.
func AppendKind(dst []byte, kind Kind) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(kind))]...)
}

// CutKind splits an 'E' frame payload (after the trace context) into its
// kind tag and the trace blob that follows. The kind is returned as sent;
// callers validate against the kinds they serve.
func CutKind(payload []byte) (kind Kind, rest []byte, err error) {
	k, n := binary.Uvarint(payload)
	if n <= 0 || k > uint64(^uint8(0)) {
		return 0, nil, fmt.Errorf("%w: events frame kind tag is malformed", ErrBadFrame)
	}
	return Kind(k), payload[n:], nil
}
