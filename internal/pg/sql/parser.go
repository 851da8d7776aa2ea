package sql

import (
	"fmt"
	"strconv"
	"strings"

	"vecstudy/internal/pg/heap"
)

type parser struct {
	toks []token
	pos  int
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errorf("expected %q, found %q", want, p.cur().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.accept(tokIdent, "create"):
		if p.accept(tokIdent, "table") {
			return p.parseCreateTable()
		}
		if p.accept(tokIdent, "index") {
			return p.parseCreateIndex()
		}
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	case p.accept(tokIdent, "insert"):
		return p.parseInsert()
	case p.accept(tokIdent, "delete"):
		return p.parseDelete()
	case p.accept(tokIdent, "update"):
		return p.parseUpdate()
	case p.accept(tokIdent, "vacuum"):
		st := &VacuumStmt{}
		if p.at(tokIdent, "") {
			st.Table = p.cur().text
			p.pos++
		}
		return st, nil
	case p.accept(tokIdent, "select"):
		return p.parseSelect()
	case p.accept(tokIdent, "set"):
		return p.parseSet()
	case p.accept(tokIdent, "show"):
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &ShowStmt{Name: name.text}, nil
	case p.accept(tokIdent, "explain"):
		inner, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: inner}, nil
	}
	return nil, p.errorf("unrecognized statement beginning with %q", p.cur().text)
}

var typeNames = map[string]heap.ColType{
	"int":     heap.Int4,
	"integer": heap.Int4,
	"int4":    heap.Int4,
	"bigint":  heap.Int8,
	"int8":    heap.Int8,
	"real":    heap.Float4,
	"float4":  heap.Float4,
	"text":    heap.Text,
	"varchar": heap.Text,
}

func (p *parser) parseCreateTable() (Stmt, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var schema heap.Schema
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typTok, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		var typ heap.ColType
		if typTok.text == "float" && p.accept(tokPunct, "[") {
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			typ = heap.Float4Array
		} else if t, ok := typeNames[typTok.text]; ok {
			typ = t
		} else {
			return nil, p.errorf("unknown column type %q", typTok.text)
		}
		schema.Cols = append(schema.Cols, heap.Column{Name: col.text, Type: typ})
		if p.accept(tokPunct, ",") {
			continue
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTableStmt{Name: name.text, Schema: schema}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	if _, err := p.expect(tokIdent, "into"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "values"); err != nil {
		return nil, err
	}
	var rows [][]Literal
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if p.accept(tokPunct, ",") {
				continue
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
		rows = append(rows, row)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	return &InsertStmt{Table: table.text, Rows: rows}, nil
}

// parseWhere parses an optional WHERE clause of AND-chained conditions.
func (p *parser) parseWhere() ([]Cond, error) {
	if !p.accept(tokIdent, "where") {
		return nil, nil
	}
	var conds []Cond
	for {
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		conds = append(conds, cond)
		if !p.accept(tokIdent, "and") {
			return conds, nil
		}
	}
}

func (p *parser) parseDelete() (Stmt, error) {
	if _, err := p.expect(tokIdent, "from"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &DeleteStmt{Table: table.text, Where: where}, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "set"); err != nil {
		return nil, err
	}
	var assigns []Assign
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "="); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, Assign{Col: col.text, Val: lit})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &UpdateStmt{Table: table.text, Set: assigns, Where: where}, nil
}

// parseLiteral handles numbers, strings, vector strings, and NULL. A
// trailing ::pase or ::vector cast is accepted and ignored.
func (p *parser) parseLiteral() (Literal, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Literal{}, p.errorf("bad number %q", t.text)
		}
		return Literal{Num: v, IsNum: true}, nil
	case t.kind == tokString:
		p.pos++
		p.acceptCast()
		if vec, ok := parseVectorLiteral(t.text); ok {
			return Literal{Str: t.text, Vec: vec, IsStr: true, IsVec: true}, nil
		}
		return Literal{Str: t.text, IsStr: true}, nil
	case t.kind == tokIdent && t.text == "null":
		p.pos++
		return Literal{IsNull: true}, nil
	case t.kind == tokPunct && t.text == "-":
		// Unary minus as its own token: the lexer refuses to start a
		// number directly after '<' (the <-> ambiguity), so "a < -5"
		// reaches the parser as '-' followed by '5'.
		if nxt := p.toks[p.pos+1]; nxt.kind == tokNumber {
			p.pos += 2
			v, err := strconv.ParseFloat(nxt.text, 64)
			if err != nil {
				return Literal{}, p.errorf("bad number %q", nxt.text)
			}
			return Literal{Num: -v, IsNum: true}, nil
		}
	}
	return Literal{}, p.errorf("expected literal, found %q", t.text)
}

func (p *parser) acceptCast() {
	if p.accept(tokPunct, "::") {
		p.accept(tokIdent, "") // cast target name, ignored
	}
}

// parseVectorLiteral parses '{0.1,0.2}', '[0.1,0.2]' or '0.1,0.2' in
// one pass, without splitting s into parts. Every element reads as
// strconv.ParseFloat(strings.TrimSpace(element), 32) would read it:
// scanFloat32 takes the plain decimals whose value one float32
// operation gives exactly, and ParseFloat reads every other element.
func parseVectorLiteral(s string) ([]float32, bool) {
	trimmed := strings.TrimSpace(s)
	trimmed = strings.TrimPrefix(trimmed, "{")
	trimmed = strings.TrimSuffix(trimmed, "}")
	trimmed = strings.TrimPrefix(trimmed, "[")
	trimmed = strings.TrimSuffix(trimmed, "]")
	if trimmed == "" {
		return nil, false
	}
	out := make([]float32, 0, strings.Count(trimmed, ",")+1)
	for i := 0; ; {
		v, end, ok := scanFloat32(trimmed, i)
		if !ok {
			end = len(trimmed)
			if j := strings.IndexByte(trimmed[i:], ','); j >= 0 {
				end = i + j
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(trimmed[i:end]), 32)
			if err != nil {
				return nil, false
			}
			v = float32(f)
		}
		out = append(out, v)
		if end == len(trimmed) {
			return out, true
		}
		i = end + 1 // past the comma
	}
}

// float32pow10 holds the powers of ten a float32 represents exactly.
var float32pow10 = [...]float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// scanFloat32 reads the element of s that starts at i when it is a
// plain decimal — ASCII space, a sign, at most 19 digits with at most
// one point, an exponent, ASCII space — with a mantissa below 2^24 and
// a power of ten within ±10. Both are then exact float32s, so the one
// multiply or divide rounds exactly as strconv.ParseFloat(…, 32) does
// (strconv's own exact path). end is the index of the comma that ends
// the element, or len(s). ok is false for any other element.
func scanFloat32(s string, i int) (v float32, end int, ok bool) {
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var mant uint64
	digits, exp10, sawDot := 0, 0, false
	for ; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			if digits == 19 {
				return 0, 0, false
			}
			mant = mant*10 + uint64(c-'0')
			digits++
			if sawDot {
				exp10--
			}
			continue
		}
		if c == '.' && !sawDot {
			sawDot = true
			continue
		}
		break
	}
	if digits == 0 {
		return 0, 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		e, edigits := 0, 0
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			if edigits == 4 {
				return 0, 0, false
			}
			e = e*10 + int(s[i]-'0')
			edigits++
		}
		if edigits == 0 {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	if i < len(s) && s[i] != ',' || mant >= 1<<24 || exp10 < -10 || exp10 > 10 {
		return 0, 0, false
	}
	v = float32(mant)
	if exp10 >= 0 {
		v *= float32pow10[exp10]
	} else {
		v /= float32pow10[-exp10]
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// asciiSpace reports the ASCII bytes unicode.IsSpace (and so
// strings.TrimSpace) counts as space.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func (p *parser) parseCreateIndex() (Stmt, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "on"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "using"); err != nil {
		return nil, err
	}
	amName, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	opts := map[string]string{}
	if p.accept(tokIdent, "with") {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		for {
			key, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "="); err != nil {
				return nil, err
			}
			val := p.cur()
			if val.kind != tokNumber && val.kind != tokString && val.kind != tokIdent {
				return nil, p.errorf("bad option value %q", val.text)
			}
			p.pos++
			opts[key.text] = val.text
			if p.accept(tokPunct, ",") {
				continue
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	return &CreateIndexStmt{Name: name.text, Table: table.text, AM: amName.text, Column: col.text, Options: opts}, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	sel := &SelectStmt{Limit: -1}
	// target list
	if p.accept(tokIdent, "count") {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "*"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		sel.CountStar = true
	} else {
		// "*" may appear as a target-list element alongside named columns
		// ("SELECT *, distance FROM ..."): resolveColumns expands it in
		// place, and the cluster router relies on the form to append the
		// distance pseudo-column to star queries it scatters.
		for {
			if p.accept(tokPunct, "*") {
				sel.Columns = append(sel.Columns, "*")
			} else {
				col, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				sel.Columns = append(sel.Columns, col.text)
			}
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokIdent, "from"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	sel.Table = table.text

	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	sel.Where = where

	if p.accept(tokIdent, "order") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "<->"); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if !lit.IsVec {
			return nil, p.errorf("ORDER BY %s <-> expects a vector literal", col.text)
		}
		sel.OrderCol, sel.QueryVec = col.text, lit.Vec
		p.accept(tokIdent, "asc")
	}

	if p.accept(tokIdent, "limit") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return nil, p.errorf("bad LIMIT %q", n.text)
		}
		sel.Limit, sel.HasLimit = v, true
	}
	return sel, nil
}

// condOps is the closed set of comparison operators a WHERE condition
// accepts; "<>" is normalized to "!=" at parse time.
var condOps = []string{"=", "!=", "<>", "<=", ">=", "<", ">"}

// parseCond parses one `col op literal` comparison.
func (p *parser) parseCond() (Cond, error) {
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return Cond{}, err
	}
	op := ""
	for _, cand := range condOps {
		if p.accept(tokPunct, cand) {
			op = cand
			break
		}
	}
	if op == "" {
		return Cond{}, p.errorf("expected a comparison operator after %q, found %q", col.text, p.cur().text)
	}
	if op == "<>" {
		op = "!="
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return Cond{}, err
	}
	return Cond{Col: col.text, Op: op, Val: lit}, nil
}

func (p *parser) parseSet() (Stmt, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if !p.accept(tokPunct, "=") {
		p.accept(tokIdent, "to")
	}
	val := p.cur()
	if val.kind != tokNumber && val.kind != tokString && val.kind != tokIdent {
		return nil, p.errorf("bad SET value %q", val.text)
	}
	p.pos++
	return &SetStmt{Name: name.text, Value: val.text}, nil
}
