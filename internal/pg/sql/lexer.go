// Package sql implements the mini SQL dialect of the generalized engine:
// enough of PostgreSQL's surface — CREATE TABLE, INSERT, CREATE INDEX …
// USING … WITH (…), SELECT … ORDER BY vec <-> '…' LIMIT k, SET, EXPLAIN —
// to express every workload in the paper, including PASE's vector-search
// SQL from Sec II-E.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString // single-quoted
	tokPunct  // single punctuation or multi-char operator
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex splits src into tokens. Identifiers and keywords are lowercased
// (the dialect is case-insensitive, like PostgreSQL's unquoted names).
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) && l.numberContext()):
			l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		default:
			l.lexPunct()
		}
	}
}

// numberContext disambiguates unary minus (start of a number) from the
// '-' inside the <-> operator: a digit-leading '-' only starts a number
// when the previous token is not '<'.
func (l *lexer) numberContext() bool {
	if len(l.toks) == 0 {
		return true
	}
	prev := l.toks[len(l.toks)-1]
	return !(prev.kind == tokPunct && prev.text == "<")
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

// lexString reads a single-quoted string. The token's text is a slice
// of the source unless the body holds an escaped (doubled) quote, the
// only case that needs a copy.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++        // opening quote
	var esc []byte // the unescaped body so far, once a doubled quote was seen
	from := l.pos
	for {
		i := strings.IndexByte(l.src[l.pos:], '\'')
		if i < 0 {
			return fmt.Errorf("sql: unterminated string starting at %d", start)
		}
		l.pos += i
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			esc = append(esc, l.src[from:l.pos+1]...) // through one quote
			l.pos += 2
			from = l.pos
			continue
		}
		text := l.src[from:l.pos]
		if esc != nil {
			text = string(append(esc, text...))
		}
		l.pos++ // closing quote
		l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
		return nil
	}
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsDigit(rune(c)):
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			if l.pos+1 < len(l.src) && (l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') {
				l.pos++
			}
		default:
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
			return
		}
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(l.src[start:l.pos]), pos: start})
}

// multi-char operators recognized before single punctuation.
var operators = []string{"<->", "<=>", "<>", "!=", "<=", ">=", "::"}

func (l *lexer) lexPunct() {
	for _, op := range operators {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.toks = append(l.toks, token{kind: tokPunct, text: op, pos: l.pos})
			l.pos += len(op)
			return
		}
	}
	l.toks = append(l.toks, token{kind: tokPunct, text: string(l.src[l.pos]), pos: l.pos})
	l.pos++
}
