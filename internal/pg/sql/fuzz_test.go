package sql

import (
	"math"
	"strings"
	"testing"
)

// FuzzParse drives the SQL lexer and parser with arbitrary input. The
// properties under test: the parser never panics, never returns a nil
// statement without an error, and accepts every statement shape the
// executor supports (the seed corpus) so regressions in the grammar
// surface as corpus failures rather than silence. Each input is also
// read as a vector literal against the split-and-ParseFloat reference.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"CREATE TABLE t (id int, vec float[])",
		"INSERT INTO t VALUES (1, '{1.5, 2.5, 3.5}')",
		"SELECT count(*) FROM t",
		"SELECT id, vec FROM t WHERE id = 7",
		"SELECT id FROM t WHERE price < 10 AND cat != 'x' ORDER BY vec <-> '{1, 1, 0, 0}' LIMIT 5",
		"SELECT id FROM t WHERE a <= 1 AND b >= 2 AND c <> 3 AND d > -4.5 ORDER BY vec <-> '{0,0}' LIMIT 1",
		"SELECT count(*) FROM t WHERE attr >= 90",
		"SELECT id FROM t WHERE a < ORDER BY vec <-> '{1,1}' LIMIT 1",
		"SELECT id FROM t WHERE a = 1 AND ORDER BY vec <-> '{1,1}' LIMIT 1",
		"SELECT id FROM t WHERE AND a = 1",
		"SELECT id FROM t WHERE a <-> 1",
		"SELECT id FROM t WHERE a = -",
		"SELECT id FROM t ORDER BY vec <-> '{10.2, 10.2, 0, 0}' LIMIT 3",
		"SELECT id, distance FROM t ORDER BY vec <-> '{42.1, 42.1}'::pase ASC LIMIT 5",
		"CREATE INDEX ivf_idx ON t USING ivfflat (vec) WITH (clusters = 16, sample_ratio = 1, seed = 1)",
		"CREATE INDEX h_idx ON t USING hnsw (vec) WITH (bnn = 8, efb = 40)",
		"SET nprobe = 16",
		"SHOW nprobe",
		"EXPLAIN SELECT id FROM t ORDER BY vec <-> '{1,1,0,0}' LIMIT 5",
		"",
		"SELECT",
		"'unterminated",
		"SELECT * FROM t WHERE id = 99999999999999999999999999",
		"\x00\x01\x02",
		// Vector literals: brackets, exponents, signed zeros, denormals,
		// infinities, whitespace, and escaped quotes in strings.
		"SELECT id FROM t ORDER BY vec <-> '[1.5e-3, -0, +2E+2, 0.000001]' LIMIT 3",
		"SELECT id FROM t ORDER BY vec <-> ' { 1e-45 ,\t-1.4e-45,\n3.4028235e38 } ' LIMIT 1",
		"SELECT id FROM t ORDER BY vec <-> '{inf, -Inf, NaN, 1_0, 0x1p-2}' LIMIT 1",
		"SELECT id FROM t ORDER BY vec <-> '{1.,.5,-.25,12345678,123456789,1e11,1e-11}' LIMIT 1",
		"SELECT id FROM t ORDER BY vec <-> '{1,,2}' LIMIT 1",
		"INSERT INTO t VALUES (1, 'it''s', '{0.1, 0.2}')",
		"SELECT id FROM t WHERE name = '''' LIMIT 1",
		"{1.25, -0, 5e-324, 1.17549435e-38}",
		" [ 7 , 8.5e+1 ] ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned nil statement with nil error", src)
		}
		if err != nil && stmt != nil {
			t.Fatalf("Parse(%q) returned both a statement and an error: %v", src, err)
		}
		// Error messages must be printable: no raw control bytes leaked
		// from the input into the message (they end up in wire frames).
		if err != nil && strings.ContainsRune(err.Error(), '\x00') {
			t.Fatalf("Parse(%q) error message contains NUL: %q", src, err)
		}
		// Read as a vector literal, the input must give exactly what
		// splitting it and strconv.ParseFloat(part, 32) give.
		got, gotOK := parseVectorLiteral(src)
		want, wantOK := splitVectorLiteral(src)
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("parseVectorLiteral(%q) = (%v, %v), want (%v, %v)", src, got, gotOK, want, wantOK)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("parseVectorLiteral(%q)[%d] = %v, want %v", src, i, got[i], want[i])
			}
		}
	})
}
