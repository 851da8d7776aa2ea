package sql

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// splitVectorLiteral is the reference reading of a vector literal: trim
// the brackets, split on commas, strconv.ParseFloat(part, 32) each
// trimmed part. parseVectorLiteral must agree with it on acceptance and
// on every value's bits.
func splitVectorLiteral(s string) ([]float32, bool) {
	trimmed := strings.TrimSpace(s)
	trimmed = strings.TrimPrefix(trimmed, "{")
	trimmed = strings.TrimSuffix(trimmed, "}")
	trimmed = strings.TrimPrefix(trimmed, "[")
	trimmed = strings.TrimSuffix(trimmed, "]")
	if trimmed == "" {
		return nil, false
	}
	parts := strings.Split(trimmed, ",")
	out := make([]float32, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 32)
		if err != nil {
			return nil, false
		}
		out[i] = float32(v)
	}
	return out, true
}

// randFloat32 draws from every class a literal can carry: ordinary
// values, random bit patterns (so every exponent), ±0, denormals, the
// extremes, and infinities and NaN.
func randFloat32(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return math.Float32frombits(rng.Uint32())
	case 1:
		return math.Float32frombits(rng.Uint32() & 0x807fffff) // ±denormal or ±0
	case 2:
		return []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(8)]
	default:
		return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
}

// formatFloat writes x the ways a client might: shortest, fixed or
// exponent form at random precision, sometimes with a leading '+'.
func formatFloat(rng *rand.Rand, x float32) string {
	var s string
	switch rng.Intn(4) {
	case 0:
		s = strconv.FormatFloat(float64(x), 'g', -1, 32)
	case 1:
		s = strconv.FormatFloat(float64(x), 'e', rng.Intn(12), 32)
	case 2:
		s = strconv.FormatFloat(float64(x), 'f', rng.Intn(8), 32)
	default:
		s = strconv.FormatFloat(float64(x), 'E', -1, 64)
	}
	if rng.Intn(10) == 0 && !strings.HasPrefix(s, "-") {
		s = "+" + s
	}
	return s
}

func randSpace(rng *rand.Rand) string {
	return []string{"", "", " ", "  ", "\t", "\n ", " \r\n"}[rng.Intn(7)]
}

// TestVectorLiteralMatchesParseFloat is the property: for random
// literals — any float32, written any way, any whitespace, {} or [] or
// no brackets, and sometimes malformed — parseVectorLiteral accepts
// exactly what the split-and-ParseFloat reading accepts, and every
// value is bit-identical to strconv.ParseFloat(part, 32).
func TestVectorLiteralMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 20000; it++ {
		var b strings.Builder
		brackets := [][2]string{{"{", "}"}, {"[", "]"}, {"", ""}}[rng.Intn(3)]
		b.WriteString(randSpace(rng) + brackets[0])
		n := 1 + rng.Intn(140)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(randSpace(rng) + "," + randSpace(rng))
			}
			b.WriteString(formatFloat(rng, randFloat32(rng)))
		}
		b.WriteString(brackets[1] + randSpace(rng))
		s := b.String()
		if rng.Intn(8) == 0 {
			// Malformed: drop, double or corrupt one byte.
			i := rng.Intn(len(s))
			switch rng.Intn(3) {
			case 0:
				s = s[:i] + s[i+1:]
			case 1:
				s = s[:i] + s[i:i+1] + s[i:]
			default:
				s = s[:i] + string("x,.e-+ ]}"[rng.Intn(9)]) + s[i+1:]
			}
		}
		want, wantOK := splitVectorLiteral(s)
		got, gotOK := parseVectorLiteral(s)
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("%q: got (%d values, %v), want (%d values, %v)", s, len(got), gotOK, len(want), wantOK)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%q: value %d = %#x, ParseFloat gives %#x", s, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, s := range []string{"", "{}", "[]", " { } ", "{,}", "{1,}", "{,1}", "1,,2", "{1 2}", "{1}}", "{{1}", "[1}", "{1]", "{0x1p-2}", "{1_0}", "{NaN, inf, -Infinity}"} {
		want, wantOK := splitVectorLiteral(s)
		got, gotOK := parseVectorLiteral(s)
		if gotOK != wantOK || len(got) != len(want) {
			t.Errorf("%q: got (%v, %v), want (%v, %v)", s, got, gotOK, want, wantOK)
		}
	}
}

// TestStringTokenSlicesSource checks the lexer's string tokens against
// a byte-at-a-time reading: a doubled quote is one quote, anything
// else is itself.
func TestStringTokenSlicesSource(t *testing.T) {
	unquote := func(body string) string { return strings.ReplaceAll(body, "''", "'") }
	for _, body := range []string{"", "x", "{1, 2.5}", "it''s", "''", "''''", "a''b''c", "''{1}", "{1}''", "héllo ''wörld''"} {
		toks, err := lex("SELECT '" + body + "' ;")
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if toks[1].kind != tokString || toks[1].text != unquote(body) || toks[1].pos != 7 {
			t.Errorf("%q: token %+v, want string %q at 7", body, toks[1], unquote(body))
		}
		if toks[2].text != ";" {
			t.Errorf("%q: next token %+v, want ;", body, toks[2])
		}
	}
	for _, src := range []string{"'", "'abc", "'it''s", "'x''"} {
		if _, err := lex(src); err == nil {
			t.Errorf("%q: unterminated string accepted", src)
		}
	}
}

// benchStatement is the served benchmark's kNN statement shape: a
// 128-float literal in shortest float32 form.
func benchStatement() string {
	rng := rand.New(rand.NewSource(7))
	b := []byte("SELECT id, distance FROM t ORDER BY vec <-> '{")
	for i := 0; i < 128; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(float32(rng.Float64()*120)), 'g', -1, 32)
	}
	return string(append(b, "}' LIMIT 10"...))
}

// BenchmarkParse parses the served benchmark's statement shape.
func BenchmarkParse(b *testing.B) {
	src := benchStatement()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
