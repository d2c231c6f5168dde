package types

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"strings"
)

// Tuple is an ordered list of values — one table row, one ANSWER-relation
// atom's arguments, or one entangled-query answer.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key returns a canonical string key usable as a map key; distinct tuples
// produce distinct keys (kind-tagged, length-prefixed encoding).
func (t Tuple) Key() string { return string(t.AppendKey(nil)) }

// AppendKey appends the tuple's Key bytes to dst and returns the extended
// slice. Building into a reused buffer and looking up with m[string(buf)]
// keys a map without allocating.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// AppendKey appends the value's Key encoding to dst: the kind tag (dates
// folded into ints, so the key agrees with Equal's int/date pairing) and
// ':', then the byte length, ':' and the bytes of a string, nothing for
// NULL, or the decimal payload otherwise, closed by ';'.
func (v Value) AppendKey(dst []byte) []byte {
	k := v.kind
	if k == KindDate {
		k = KindInt
	}
	dst = strconv.AppendUint(dst, uint64(k), 10)
	dst = append(dst, ':')
	switch k {
	case KindString:
		dst = strconv.AppendInt(dst, int64(len(v.s)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.s...)
	case KindNull:
	default:
		dst = strconv.AppendInt(dst, v.i, 10)
	}
	return append(dst, ';')
}

// Hash returns a 64-bit hash of the tuple consistent with Equal.
func (t Tuple) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range t {
		k := v.Kind()
		if k == KindDate {
			k = KindInt
		}
		h.Write([]byte{byte(k)})
		switch k {
		case KindString:
			h.Write([]byte(v.Str64()))
		case KindNull:
		default:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.i))
			h.Write(buf[:])
		}
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}
