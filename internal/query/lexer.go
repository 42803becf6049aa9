package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single punctuation: ( ) [ ] - > < : . , = *
	tokOp     // multi-char comparison: <= >= <>
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
	i    int
}

func newLexer(src string) (*lexer, error) {
	l := &lexer{src: src}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *lexer) scan() error {
	s := l.src
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '\'' || c == '"':
			quote := s[i]
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			if j >= len(s) {
				return fmt.Errorf("query: unterminated string at offset %d", i)
			}
			l.toks = append(l.toks, token{tokString, s[i+1 : j], i})
			i = j + 1
		case isDigit(c):
			// Numbers are ASCII only: the loop advances a byte at a time, so
			// a multi-byte digit rune would never be consumed.
			j := i
			for j < len(s) && (isDigit(rune(s[j])) || s[j] == '.') {
				// Stop a trailing '.' that belongs to property access.
				if s[j] == '.' && (j+1 >= len(s) || !isDigit(rune(s[j+1]))) {
					break
				}
				j++
			}
			l.toks = append(l.toks, token{tokNumber, s[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(s) {
				r, rs := utf8.DecodeRuneInString(s[j:])
				if !isIdentPart(r) {
					break
				}
				j += rs
			}
			l.toks = append(l.toks, token{tokIdent, s[i:j], i})
			i = j
		case c == '<' && i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '>'):
			l.toks = append(l.toks, token{tokOp, s[i : i+2], i})
			i += 2
		case c == '>' && i+1 < len(s) && s[i+1] == '=':
			l.toks = append(l.toks, token{tokOp, ">=", i})
			i += 2
		case strings.ContainsRune("()[]-><:.,=*+", c):
			l.toks = append(l.toks, token{tokSymbol, string(c), i})
			i++
		// Unicode dashes/arrows occasionally used in paper excerpts.
		case c == '−' || c == '–':
			l.toks = append(l.toks, token{tokSymbol, "-", i})
			i += size
		case c == '→':
			l.toks = append(l.toks, token{tokSymbol, "-", i}, token{tokSymbol, ">", i})
			i += size
		case c == '←':
			l.toks = append(l.toks, token{tokSymbol, "<", i}, token{tokSymbol, "-", i})
			i += size
		default:
			return fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", len(s)})
	return nil
}

func isDigit(c rune) bool { return '0' <= c && c <= '9' }

// isIdentStart accepts letters, '_', and other non-ASCII runes except the
// arrow/dash symbols and digits: no digit may start an identifier, so a
// non-ASCII digit is an unexpected character.
func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_' || c > 127 && !unicode.IsDigit(c) && !strings.ContainsRune("−–→←", c)
}

func isIdentPart(c rune) bool {
	return isIdentStart(c) || unicode.IsDigit(c)
}

func (l *lexer) peek() token  { return l.toks[l.i] }
func (l *lexer) peek2() token { return l.toks[min(l.i+1, len(l.toks)-1)] }

func (l *lexer) next() token {
	t := l.toks[l.i]
	if l.i < len(l.toks)-1 {
		l.i++
	}
	return t
}

// acceptKeyword consumes an identifier equal (case-insensitively) to kw.
func (l *lexer) acceptKeyword(kw string) bool {
	t := l.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		l.next()
		return true
	}
	return false
}

// expectKeyword consumes kw or errors.
func (l *lexer) expectKeyword(kw string) error {
	if !l.acceptKeyword(kw) {
		return fmt.Errorf("query: expected %q at offset %d, got %q", kw, l.peek().pos, l.peek().text)
	}
	return nil
}

// acceptSymbol consumes the given punctuation.
func (l *lexer) acceptSymbol(sym string) bool {
	t := l.peek()
	if (t.kind == tokSymbol || t.kind == tokOp) && t.text == sym {
		l.next()
		return true
	}
	return false
}

// expectSymbol consumes sym or errors.
func (l *lexer) expectSymbol(sym string) error {
	if !l.acceptSymbol(sym) {
		return fmt.Errorf("query: expected %q at offset %d, got %q", sym, l.peek().pos, l.peek().text)
	}
	return nil
}

// atKeyword reports whether the next token is the given keyword.
func (l *lexer) atKeyword(kw string) bool {
	t := l.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
