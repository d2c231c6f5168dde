package types

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTupleEqualCloneString(t *testing.T) {
	a := Tuple{Str("Mickey"), Int(122), MustDate("2011-05-03")}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	b[1] = Int(123)
	if a.Equal(b) {
		t.Fatal("mutating clone must not affect original")
	}
	if a[1].Int64() != 122 {
		t.Fatal("original mutated by clone edit")
	}
	if got := a.String(); got != "(Mickey, 122, 2011-05-03)" {
		t.Errorf("String() = %q", got)
	}
	if a.Equal(Tuple{Str("Mickey")}) {
		t.Error("different arities must not be equal")
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{Int(1), Str("a")}
	b := Tuple{Int(1), Str("b")}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("lexicographic compare broken")
	}
	if (Tuple{Int(1)}).Compare(Tuple{Int(1), Int(2)}) != -1 {
		t.Error("prefix must sort before extension")
	}
}

func TestTupleKeyDistinguishes(t *testing.T) {
	cases := [][2]Tuple{
		{{Int(1), Str("2")}, {Str("1"), Int(2)}},
		{{Str("ab"), Str("c")}, {Str("a"), Str("bc")}},
		{{Null()}, {Int(0)}},
		{{Str("")}, {Null()}},
		{{Int(1)}, {Int(1), Int(1)}},
	}
	for _, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("Key collision between %v and %v", c[0], c[1])
		}
	}
	// Int/date pairing must agree with Equal.
	if (Tuple{Int(7)}).Key() != (Tuple{Date(7)}).Key() {
		t.Error("Int and Date with same payload must share a key (they are Equal)")
	}
}

func TestTupleHashConsistentWithEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(int64(rng.Intn(10)))
		case 1:
			return Str(string(rune('a' + rng.Intn(5))))
		case 2:
			return Null()
		default:
			return Date(int64(rng.Intn(10)))
		}
	}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(4)
		a := make(Tuple, n)
		b := make(Tuple, n)
		for j := 0; j < n; j++ {
			a[j] = randVal()
			b[j] = randVal()
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("equal tuples with different hashes: %v %v", a, b)
		}
		if a.Key() == b.Key() && !a.Equal(b) {
			t.Fatalf("key collision for unequal tuples: %v %v", a, b)
		}
	}
}

func TestTupleEncodeRoundTripQuick(t *testing.T) {
	f := func(is []int64, ss []string) bool {
		tu := make(Tuple, 0, len(is)+len(ss)+1)
		for _, i := range is {
			tu = append(tu, Int(i))
		}
		for _, s := range ss {
			tu = append(tu, Str(s))
		}
		tu = append(tu, Null())
		buf := EncodeTuple(nil, tu)
		got, n, err := DecodeTuple(buf)
		return err == nil && n == len(buf) && got.Equal(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("empty buffer should error")
	}
	buf := EncodeTuple(nil, Tuple{Int(1), Str("abc")})
	if _, _, err := DecodeTuple(buf[:len(buf)-2]); err == nil {
		t.Error("truncated tuple should error")
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(
		Column{Name: "fno", Type: KindInt},
		Column{Name: "fdate", Type: KindDate},
		Column{Name: "dest", Type: KindString},
	)
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Index("FDATE") != 1 {
		t.Error("column lookup must be case-insensitive")
	}
	if s.Index("nope") != -1 || s.Has("nope") {
		t.Error("missing column must report -1 / false")
	}
	ok := Tuple{Int(122), MustDate("2011-05-03"), Str("LA")}
	if err := s.Validate(ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// Int accepted where date declared.
	if err := s.Validate(Tuple{Int(122), Int(15000), Str("LA")}); err != nil {
		t.Errorf("int-for-date rejected: %v", err)
	}
	if err := s.Validate(Tuple{Int(122), Str("LA")}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := s.Validate(Tuple{Str("x"), MustDate("2011-05-03"), Str("LA")}); err == nil {
		t.Error("wrong type accepted")
	}
	if err := s.Validate(Tuple{Null(), Null(), Null()}); err != nil {
		t.Errorf("NULLs must validate: %v", err)
	}
	want := "(fno INT, fdate DATE, dest VARCHAR)"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}

// TestTupleKeyGolden pins the key encoding byte for byte: kind tag (dates
// folded to ints), then a length-prefixed payload for strings, an empty
// payload for NULL and the decimal integer otherwise, each value closed by
// ';'. Index buckets and grounding identities are built from these bytes,
// so AppendKey and Key must emit exactly them.
func TestTupleKeyGolden(t *testing.T) {
	cases := []struct {
		tu   Tuple
		want string
	}{
		{Tuple{}, ""},
		{Tuple{Int(0)}, "1:0;"},
		{Tuple{Int(-42)}, "1:-42;"},
		{Tuple{Int(math.MinInt64)}, "1:-9223372036854775808;"},
		{Tuple{Int(math.MaxInt64)}, "1:9223372036854775807;"},
		{Tuple{MustDate("2011-05-06")}, "1:15100;"},
		{Tuple{Date(-3)}, "1:-3;"},
		{Tuple{Null()}, "0:;"},
		{Tuple{Str("")}, "2:0:;"},
		{Tuple{Str("a:b;c|d#e")}, "2:9:a:b;c|d#e;"},
		{Tuple{Str("é")}, "2:2:é;"},
		{Tuple{Bool(true)}, "3:1;"},
		{Tuple{Bool(false)}, "3:0;"},
		{Tuple{Str("Mickey"), Int(122), MustDate("2011-05-03"), Null(), Bool(true)},
			"2:6:Mickey;1:122;1:15097;0:;3:1;"},
	}
	for _, c := range cases {
		if got := c.tu.Key(); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.tu, got, c.want)
		}
		prefix := []byte("prefix")
		if got := string(c.tu.AppendKey(prefix)); got != "prefix"+c.want {
			t.Errorf("AppendKey(%v) = %q, want %q", c.tu, got, "prefix"+c.want)
		}
	}
}

// TestTupleKeyEqualIffEqual: over random tuples drawn from a small domain
// (so equal pairs are common), Key(a) == Key(b) exactly when a.Equal(b).
func TestTupleKeyEqualIffEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	strs := []string{"", ":", ";", "1:", "0:;", "a", "|#"}
	randVal := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Int(int64(rng.Intn(5) - 2))
		case 1:
			return Str(strs[rng.Intn(len(strs))])
		case 2:
			return Null()
		case 3:
			return Bool(rng.Intn(2) == 0)
		default:
			return Date(int64(rng.Intn(5) - 2))
		}
	}
	equalPairs := 0
	for i := 0; i < 20000; i++ {
		a := make(Tuple, rng.Intn(3))
		b := make(Tuple, rng.Intn(3))
		for j := range a {
			a[j] = randVal()
		}
		for j := range b {
			b[j] = randVal()
		}
		eq := a.Equal(b)
		if eq {
			equalPairs++
		}
		if (a.Key() == b.Key()) != eq {
			t.Fatalf("Key(%v)=%q, Key(%v)=%q, Equal=%v", a, a.Key(), b, b.Key(), eq)
		}
	}
	if equalPairs < 100 {
		t.Fatalf("only %d equal pairs drawn; the check needs more", equalPairs)
	}
}
