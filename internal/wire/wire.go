// Package wire defines the client/server protocol of the serving layer:
// a small length-prefixed binary framing, pgwire-shaped but minimal.
//
// Every frame is
//
//	[1 byte type][4 bytes big-endian payload length][payload]
//
// Client-to-server types: Query (payload = UTF-8 SQL text), Ping (empty),
// Terminate (empty). Server-to-client types: ResultHeader (utility
// message + column names), DataRow (one typed row), Done (row count,
// terminates a result set and reports ready-for-query), Error
// (SQLSTATE-style code + message). A successful query is answered with
// ResultHeader, zero or more DataRows, then Done; a failed one with a
// single Error frame, after which the session is ready again. Ping is
// answered with Done(0).
//
// Encoding and decoding are pure functions over byte slices and
// io.Reader/io.Writer — no sockets — so the protocol round-trips in
// tests without a network.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Type is the one-byte frame type.
type Type byte

// Frame types. The letters follow the PostgreSQL wire protocol where a
// close analogue exists (Q query, D data row, E error, X terminate).
const (
	TQuery     Type = 'Q' // client → server: SQL text
	TPing      Type = 'p' // client → server: liveness probe
	TTerminate Type = 'X' // client → server: clean goodbye

	THeader Type = 'H' // server → client: result header (msg, columns)
	TRow    Type = 'D' // server → client: one data row
	TDone   Type = 'Z' // server → client: result complete, ready for query
	TError  Type = 'E' // server → client: statement or admission error
)

// MaxFrame bounds a frame payload (64 MiB). A peer announcing a larger
// frame is protocol-broken (or hostile); readers fail fast instead of
// allocating.
const MaxFrame = 64 << 20

// SQLSTATE-style error codes carried by TError frames.
const (
	CodeError    = "XX000" // statement failed (parse/execution error)
	CodeRejected = "53300" // admission queue full: too many connections
	CodeTimeout  = "57014" // per-query timeout exceeded
	CodeShutdown = "57P01" // server is draining for shutdown
)

// Error is a decoded TError frame. It satisfies the error interface so
// clients can return it directly.
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string { return fmt.Sprintf("server error %s: %s", e.Code, e.Message) }

// Result mirrors the SQL layer's statement outcome on the client side.
type Result struct {
	Cols []string
	Rows [][]any
	Msg  string // DDL/utility acknowledgment ("CREATE TABLE", "SET", ...)
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds max %d", len(payload), MaxFrame)
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// AppendFrame appends one whole frame to b, for a writer without a
// buffer that must still send the frame in one Write.
func AppendFrame(b []byte, t Type, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds max %d", len(payload), MaxFrame)
	}
	b = append(b, byte(t))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...), nil
}

// ReadFrame reads one frame. io.EOF is returned verbatim on a clean
// close between frames; a close mid-frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Type, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds max %d", n, MaxFrame)
	}
	if n == 0 {
		return Type(hdr[0]), nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return Type(hdr[0]), payload, nil
}

// --- payload primitives ---------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(b[:n]), b[n:], nil
}

// --- Query ----------------------------------------------------------------

// EncodeQuery encodes a TQuery payload.
func EncodeQuery(sql string) []byte { return []byte(sql) }

// DecodeQuery decodes a TQuery payload.
func DecodeQuery(p []byte) string { return string(p) }

// --- ResultHeader ---------------------------------------------------------

// appendHeader appends a THeader payload to b: the utility message and
// the column names. The column count travels as a uint16, so wider
// headers fail fast instead of truncating and mis-decoding on the peer.
func appendHeader(b []byte, msg string, cols []string) ([]byte, error) {
	if len(cols) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d columns exceeds max %d", len(cols), math.MaxUint16)
	}
	b = appendString(b, msg)
	b = binary.BigEndian.AppendUint16(b, uint16(len(cols)))
	for _, c := range cols {
		b = appendString(b, c)
	}
	return b, nil
}

// DecodeHeader decodes a THeader payload.
func DecodeHeader(p []byte) (msg string, cols []string, err error) {
	msg, p, err = readString(p)
	if err != nil {
		return "", nil, err
	}
	if len(p) < 2 {
		return "", nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint16(p)
	p = p[2:]
	for i := 0; i < int(n); i++ {
		var c string
		c, p, err = readString(p)
		if err != nil {
			return "", nil, err
		}
		cols = append(cols, c)
	}
	if len(p) != 0 {
		return "", nil, fmt.Errorf("wire: %d trailing bytes after header payload", len(p))
	}
	return msg, cols, nil
}

// --- DataRow --------------------------------------------------------------

// Value tags inside a TRow payload. Each value is one tag byte followed
// by its fixed- or length-prefixed encoding.
const (
	tagNull    = 'n'
	tagInt32   = 'i'
	tagInt64   = 'l'
	tagFloat32 = 'f'
	tagFloat64 = 'd'
	tagString  = 's'
	tagVector  = 'v' // []float32: u32 count + 4 bytes per element
)

// appendRow appends one row of SQL output values to b as a TRow
// payload. The supported dynamic types are exactly those the SQL
// executor produces: nil, int32, int64, float32, float64, string,
// []float32.
func appendRow(b []byte, vals []any) ([]byte, error) {
	if len(vals) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d row values exceeds max %d", len(vals), math.MaxUint16)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(vals)))
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			b = append(b, tagNull)
		case int32:
			b = append(b, tagInt32)
			b = binary.BigEndian.AppendUint32(b, uint32(x))
		case int64:
			b = append(b, tagInt64)
			b = binary.BigEndian.AppendUint64(b, uint64(x))
		case float32:
			b = append(b, tagFloat32)
			b = binary.BigEndian.AppendUint32(b, math.Float32bits(x))
		case float64:
			b = append(b, tagFloat64)
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
		case string:
			b = append(b, tagString)
			b = appendString(b, x)
		case []float32:
			b = append(b, tagVector)
			b = binary.BigEndian.AppendUint32(b, uint32(len(x)))
			for _, f := range x {
				b = binary.BigEndian.AppendUint32(b, math.Float32bits(f))
			}
		default:
			return nil, fmt.Errorf("wire: cannot encode value of type %T", v)
		}
	}
	return b, nil
}

// DecodeRow decodes a TRow payload back into dynamic values.
func DecodeRow(p []byte) ([]any, error) {
	if len(p) < 2 {
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint16(p)
	p = p[2:]
	vals := make([]any, 0, n)
	for i := 0; i < int(n); i++ {
		if len(p) < 1 {
			return nil, io.ErrUnexpectedEOF
		}
		tag := p[0]
		p = p[1:]
		switch tag {
		case tagNull:
			vals = append(vals, nil)
		case tagInt32:
			if len(p) < 4 {
				return nil, io.ErrUnexpectedEOF
			}
			vals = append(vals, int32(binary.BigEndian.Uint32(p)))
			p = p[4:]
		case tagInt64:
			if len(p) < 8 {
				return nil, io.ErrUnexpectedEOF
			}
			vals = append(vals, int64(binary.BigEndian.Uint64(p)))
			p = p[8:]
		case tagFloat32:
			if len(p) < 4 {
				return nil, io.ErrUnexpectedEOF
			}
			vals = append(vals, math.Float32frombits(binary.BigEndian.Uint32(p)))
			p = p[4:]
		case tagFloat64:
			if len(p) < 8 {
				return nil, io.ErrUnexpectedEOF
			}
			vals = append(vals, math.Float64frombits(binary.BigEndian.Uint64(p)))
			p = p[8:]
		case tagString:
			s, rest, err := readString(p)
			if err != nil {
				return nil, err
			}
			vals = append(vals, s)
			p = rest
		case tagVector:
			if len(p) < 4 {
				return nil, io.ErrUnexpectedEOF
			}
			m := binary.BigEndian.Uint32(p)
			p = p[4:]
			// In 64 bits: 4*m in uint32 wraps for m >= 2^30, and a
			// hostile count would then pass and allocate ~m floats.
			if uint64(len(p)) < 4*uint64(m) {
				return nil, io.ErrUnexpectedEOF
			}
			vec := make([]float32, m)
			for j := range vec {
				vec[j] = math.Float32frombits(binary.BigEndian.Uint32(p[4*j:]))
			}
			vals = append(vals, vec)
			p = p[4*m:]
		default:
			return nil, fmt.Errorf("wire: unknown value tag %q", tag)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after row payload", len(p))
	}
	return vals, nil
}

// --- Done -----------------------------------------------------------------

// EncodeDone encodes a TDone payload carrying the row count.
func EncodeDone(rows int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(rows))
}

// DecodeDone decodes a TDone payload. The payload is exactly four
// bytes; trailing garbage means a framing bug (or a hostile peer) and
// is rejected rather than ignored.
func DecodeDone(p []byte) (rows int, err error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("wire: done payload is %d bytes, want 4", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), nil
}

// --- Error ----------------------------------------------------------------

// EncodeError encodes a TError payload.
func EncodeError(code, msg string) []byte {
	return appendString(appendString(nil, code), msg)
}

// DecodeError decodes a TError payload.
func DecodeError(p []byte) (*Error, error) {
	code, p, err := readString(p)
	if err != nil {
		return nil, err
	}
	msg, rest, err := readString(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after error payload", len(rest))
	}
	return &Error{Code: code, Message: msg}, nil
}

// --- whole-result helpers -------------------------------------------------

// WriteResult writes a full successful result: header, rows, done.
// The payloads are encoded into one scratch buffer reused frame after
// frame; w must not retain what it is handed (the io.Writer contract).
func WriteResult(w io.Writer, res *Result) error {
	buf, err := appendHeader(make([]byte, 0, 256), res.Msg, res.Cols)
	if err != nil {
		return err
	}
	if err := WriteFrame(w, THeader, buf); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if buf, err = appendRow(buf[:0], row); err != nil {
			return err
		}
		if err := WriteFrame(w, TRow, buf); err != nil {
			return err
		}
	}
	return WriteFrame(w, TDone, binary.BigEndian.AppendUint32(buf[:0], uint32(len(res.Rows))))
}

// ReadResult reads frames until a result completes. A TError frame is
// returned as (*Error) in err; any other protocol violation — a Done
// frame that is not four bytes, or whose count differs from the rows
// received — is a plain error.
func ReadResult(r io.Reader) (*Result, error) {
	var res *Result
	for {
		t, payload, err := ReadFrame(r)
		if err != nil {
			return nil, err
		}
		switch t {
		case THeader:
			msg, cols, err := DecodeHeader(payload)
			if err != nil {
				return nil, err
			}
			res = &Result{Msg: msg, Cols: cols}
		case TRow:
			if res == nil {
				return nil, fmt.Errorf("wire: DataRow before ResultHeader")
			}
			vals, err := DecodeRow(payload)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, vals)
		case TDone:
			rows, err := DecodeDone(payload)
			if err != nil {
				return nil, err
			}
			if res == nil {
				res = &Result{} // Done without header: ping reply
			}
			if rows != len(res.Rows) {
				return nil, fmt.Errorf("wire: done reports %d rows, received %d", rows, len(res.Rows))
			}
			return res, nil
		case TError:
			werr, err := DecodeError(payload)
			if err != nil {
				return nil, err
			}
			return nil, werr
		default:
			return nil, fmt.Errorf("wire: unexpected frame type %q in result", byte(t))
		}
	}
}
