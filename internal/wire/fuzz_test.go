package wire

import (
	"bytes"
	"testing"
)

// frameBytes builds a well-formed frame for the seed corpus.
func frameBytes(t Type, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, t, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader and,
// when a frame parses, through the per-type payload decoder and an
// encode/decode round trip. The properties under test: no decoder
// panics or over-allocates on hostile input, and every successfully
// decoded frame survives re-encoding byte-identically.
func FuzzDecodeFrame(f *testing.F) {
	header, _ := appendHeader(nil, "SELECT", []string{"id", "distance"})
	row, _ := appendRow(nil, []any{int64(7), "x", float32(0.5), []float32{1, 2, 3}})
	f.Add(frameBytes(TQuery, EncodeQuery("SELECT count(*) FROM t")))
	f.Add(frameBytes(TPing, nil))
	f.Add(frameBytes(TTerminate, nil))
	f.Add(frameBytes(THeader, header))
	f.Add(frameBytes(TRow, row))
	f.Add(frameBytes(TDone, EncodeDone(42)))
	f.Add(frameBytes(TError, EncodeError(CodeTimeout, "canceled")))
	// Truncated and oversized headers.
	f.Add([]byte{byte(TQuery)})
	f.Add([]byte{byte(TRow), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{byte(TDone), 0, 0, 0, 9, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Round trip: the frame layer must be lossless.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encoding read frame: %v", err)
		}
		typ2, payload2, err := ReadFrame(bytes.NewReader(buf.Bytes()))
		if err != nil || typ2 != typ || !bytes.Equal(payload, payload2) {
			t.Fatalf("frame round trip diverged: %v", err)
		}
		// Payload decoders must not panic, and successful decodes must
		// re-encode to the exact bytes they came from.
		switch typ {
		case THeader:
			msg, cols, err := DecodeHeader(payload)
			if err == nil {
				again, err := appendHeader(nil, msg, cols)
				if err != nil || !bytes.Equal(again, payload) {
					t.Fatalf("header round trip diverged")
				}
			}
		case TRow:
			vals, err := DecodeRow(payload)
			if err == nil {
				// Compared as bytes: a vector may carry NaN, which no
				// value comparison equals to itself.
				again, err := appendRow(nil, vals)
				if err != nil || !bytes.Equal(again, payload) {
					t.Fatalf("row round trip diverged: %v", err)
				}
			}
		case TDone:
			if rows, err := DecodeDone(payload); err == nil {
				if !bytes.Equal(EncodeDone(rows), payload) {
					t.Fatalf("done round trip diverged")
				}
			}
		case TError:
			if e, err := DecodeError(payload); err == nil {
				if !bytes.Equal(EncodeError(e.Code, e.Message), payload) {
					t.Fatalf("error round trip diverged")
				}
			}
		}
	})
}
