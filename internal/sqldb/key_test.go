package sqldb

import (
	"math"
	"strings"
	"testing"
)

func TestCompositeKeyInjective(t *testing.T) {
	// Pairs of rows that alias under naive delimiter-joined Key() encodings
	// but must produce distinct composite keys.
	pairs := [][2]Row{
		{{Str("a\x1f"), Str("b")}, {Str("a"), Str("\x1fb")}},
		{{Str("a"), Str("")}, {Str(""), Str("a")}},
		{{Str("1|x"), Str("y")}, {Str("1"), Str("|xy")}},
		{{Str("ab")}, {Str("a"), Str("b")}},
		{{Int(12), Str("3")}, {Int(1), Str("23")}},
		{{Null(), Str("")}, {Str(""), Null()}},
	}
	for _, p := range pairs {
		if CompositeKey(p[0]) == CompositeKey(p[1]) {
			t.Errorf("rows %v and %v alias to composite key %q", p[0], p[1], CompositeKey(p[0]))
		}
	}
}

func TestCompositeKeyEqualRows(t *testing.T) {
	// Numerically equal ints and floats share a Key(), so composite keys of
	// pairwise Key()-equal rows must match.
	a := Row{Int(3), Str("x\x1fy"), Bool(true)}
	b := Row{Float(3), Str("x\x1fy"), Bool(true)}
	if CompositeKey(a) != CompositeKey(b) {
		t.Errorf("Key()-equal rows produced different composite keys: %q vs %q",
			CompositeKey(a), CompositeKey(b))
	}
}

func TestAppendLengthPrefixed(t *testing.T) {
	got := string(AppendLengthPrefixed(AppendLengthPrefixed(nil, "ab"), ""))
	if got != "2|ab0|" {
		t.Errorf("encoding = %q, want %q", got, "2|ab0|")
	}
}

func TestAppendCompositeKeyMatchesCompositeKey(t *testing.T) {
	rows := []Row{
		nil,
		{},
		{Str("a\x1f"), Str("b")},
		{Int(12), Str("3"), Null(), Bool(false)},
		{Float(3.5), Str("")},
	}
	buf := make([]byte, 0, 64)
	for _, r := range rows {
		buf = buf[:0]
		buf = AppendCompositeKey(buf, r)
		if string(buf) != CompositeKey(r) {
			t.Errorf("AppendCompositeKey(%v) = %q, want %q", r, buf, CompositeKey(r))
		}
	}
	// Appending extends dst rather than replacing it.
	pre := AppendCompositeKey([]byte("x"), Row{Str("a")})
	if string(pre) != "x"+CompositeKey(Row{Str("a")}) {
		t.Errorf("AppendCompositeKey did not extend dst: %q", pre)
	}
}

// AppendValueKey writes integers and strings piecewise; the bytes must stay
// those of the length-prefixed Key() it is defined as, and those two kinds
// must not allocate.
func TestAppendValueKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false),
		Int(0), Int(-1), Int(7), Int(1234567890), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(3), Float(-2.5), Float(1e300), Float(math.Inf(1)), Float(math.NaN()),
		Str(""), Str("a"), Str("1|x"), Str("a\x1fb"), Str(strings.Repeat("k", 300)),
	}
	for _, v := range vals {
		want := string(AppendLengthPrefixed([]byte("p"), v.Key()))
		if got := string(AppendValueKey([]byte("p"), v)); got != want {
			t.Errorf("AppendValueKey(%v) = %q, want %q", v, got, want)
		}
	}
	buf := make([]byte, 0, 512)
	for _, v := range []Value{Int(math.MinInt64), Str("organisation")} {
		if n := testing.AllocsPerRun(100, func() { buf = AppendValueKey(buf[:0], v) }); n != 0 {
			t.Errorf("AppendValueKey(%v) allocates %v times, want 0", v, n)
		}
	}
}
