package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[Type][]byte{
		TQuery:     []byte("SELECT 1"),
		TPing:      nil,
		TTerminate: nil,
		TDone:      EncodeDone(42),
	}
	for typ, p := range payloads {
		buf.Reset()
		if err := WriteFrame(&buf, typ, p); err != nil {
			t.Fatalf("write %q: %v", byte(typ), err)
		}
		gotT, gotP, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %q: %v", byte(typ), err)
		}
		if gotT != typ || !bytes.Equal(gotP, p) {
			t.Errorf("round trip %q: got (%q, %v)", byte(typ), byte(gotT), gotP)
		}
	}
}

func TestFrameCleanEOFBetweenFrames(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
		if err == io.EOF && cut > 1 {
			t.Errorf("truncation at %d reported as clean EOF", cut)
		}
	}
}

func TestFrameOversized(t *testing.T) {
	// A forged header announcing a payload beyond MaxFrame must fail
	// before allocating.
	hdr := []byte{byte(TQuery), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("oversized frame err = %v", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		msg  string
		cols []string
	}{
		{"CREATE TABLE", nil},
		{"", []string{"id", "distance"}},
		{"SET", []string{}},
	} {
		p, err := appendHeader(nil, tc.msg, tc.cols)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		msg, cols, err := DecodeHeader(p)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if msg != tc.msg || len(cols) != len(tc.cols) {
			t.Errorf("got (%q, %v), want (%q, %v)", msg, cols, tc.msg, tc.cols)
		}
		for i := range cols {
			if cols[i] != tc.cols[i] {
				t.Errorf("col %d = %q, want %q", i, cols[i], tc.cols[i])
			}
		}
	}
}

func TestRowRoundTripAllTypes(t *testing.T) {
	row := []any{
		nil,
		int32(-7),
		int64(1 << 40),
		float32(3.25),
		float64(-2.5),
		"hello 'world'",
		[]float32{0.1, -0.2, float32(math.Inf(1))},
	}
	p, err := appendRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, row) {
		t.Errorf("row round trip:\n got %#v\nwant %#v", got, row)
	}
}

func TestRowRejectsUnknownType(t *testing.T) {
	if _, err := appendRow(nil, []any{struct{}{}}); err == nil {
		t.Error("struct value encoded without error")
	}
}

func TestEncodeRejectsUint16Overflow(t *testing.T) {
	// Counts travel as uint16; one past the max must fail fast rather
	// than truncate and mis-decode on the peer.
	if _, err := appendHeader(nil, "", make([]string, math.MaxUint16+1)); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("oversized header err = %v", err)
	}
	if _, err := appendRow(nil, make([]any, math.MaxUint16+1)); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("oversized row err = %v", err)
	}
	if p, err := appendHeader(nil, "", make([]string, math.MaxUint16)); err != nil {
		t.Errorf("header at the limit rejected: %v", err)
	} else if _, cols, err := DecodeHeader(p); err != nil || len(cols) != math.MaxUint16 {
		t.Errorf("header at the limit round trip: %d cols, %v", len(cols), err)
	}
}

func TestRowRejectsCorruptPayload(t *testing.T) {
	p, err := appendRow(nil, []any{int64(9), "abc"})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeRow(p[:cut]); err == nil {
			t.Errorf("corrupt row (cut at %d) decoded without error", cut)
		}
	}
	bad := append([]byte{0, 1, '?'}, p...)
	if _, err := DecodeRow(bad[:3]); err == nil {
		t.Error("unknown tag decoded without error")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e, err := DecodeError(EncodeError(CodeRejected, "admission queue full"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeRejected || e.Message != "admission queue full" {
		t.Errorf("got %+v", e)
	}
	if !strings.Contains(e.Error(), CodeRejected) {
		t.Errorf("Error() = %q lacks code", e.Error())
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &Result{
		Cols: []string{"id", "distance", "vec"},
		Rows: [][]any{
			{int32(1), float32(0.5), []float32{1, 2}},
			{int32(2), float32(1.5), []float32{3, 4}},
		},
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("result round trip:\n got %#v\nwant %#v", got, res)
	}
}

func TestResultErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TError, EncodeError(CodeTimeout, "query timed out")); err != nil {
		t.Fatal(err)
	}
	_, err := ReadResult(&buf)
	var werr *Error
	if !errors.As(err, &werr) || werr.Code != CodeTimeout {
		t.Errorf("err = %v, want wire.Error with CodeTimeout", err)
	}
}

func TestResultRowBeforeHeaderRejected(t *testing.T) {
	var buf bytes.Buffer
	p, _ := appendRow(nil, []any{int32(1)})
	if err := WriteFrame(&buf, TRow, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResult(&buf); err == nil {
		t.Error("DataRow before ResultHeader accepted")
	}
}

func TestPingReplyIsBareDone(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TDone, EncodeDone(0)); err != nil {
		t.Fatal(err)
	}
	res, err := ReadResult(&buf)
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("bare Done: res=%v err=%v", res, err)
	}
}

// writeRowsThenDone writes a header, nrows one-column rows, and a Done
// frame carrying the given payload.
func writeRowsThenDone(t *testing.T, nrows int, done []byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	h, _ := appendHeader(nil, "SELECT", []string{"id"})
	if err := WriteFrame(&buf, THeader, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nrows; i++ {
		p, _ := appendRow(nil, []any{int64(i)})
		if err := WriteFrame(&buf, TRow, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFrame(&buf, TDone, done); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestResultDoneCountMismatchRejected(t *testing.T) {
	if _, err := ReadResult(writeRowsThenDone(t, 2, EncodeDone(3))); err == nil ||
		!strings.Contains(err.Error(), "done reports 3 rows, received 2") {
		t.Errorf("Done(3) after 2 rows: err = %v", err)
	}
	if res, err := ReadResult(writeRowsThenDone(t, 2, EncodeDone(2))); err != nil || len(res.Rows) != 2 {
		t.Errorf("Done(2) after 2 rows: res=%v err=%v", res, err)
	}
}

func TestResultShortDoneRejected(t *testing.T) {
	if _, err := ReadResult(writeRowsThenDone(t, 0, []byte{0, 0, 0})); err == nil ||
		!strings.Contains(err.Error(), "done payload is 3 bytes") {
		t.Errorf("3-byte Done: err = %v", err)
	}
}
