package lang

import "fmt"

// Lexer turns MiniC source into tokens.
type Lexer struct {
	file string
	src  []byte
	pos  int
	line int
}

// NewLexer returns a lexer over src; file is used in error messages.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: []byte(src), line: 1}
}

// Error is a positioned compile error.
type Error struct {
	File string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

func (l *Lexer) errf(format string, args ...interface{}) error {
	return &Error{File: l.file, Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line := l.line
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line}, nil
	}
	c := l.peek()
	switch {
	case isDigit(c):
		start := l.pos
		base := int64(10)
		if c == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			l.advance()
			l.advance()
			base = 16
			start = l.pos
		}
		var v int64
		for l.pos < len(l.src) {
			d := l.peek()
			var dv int64
			switch {
			case isDigit(d):
				dv = int64(d - '0')
			case base == 16 && d >= 'a' && d <= 'f':
				dv = int64(d-'a') + 10
			case base == 16 && d >= 'A' && d <= 'F':
				dv = int64(d-'A') + 10
			default:
				goto doneNum
			}
			v = v*base + dv
			l.advance()
		}
	doneNum:
		if l.pos == start {
			return Token{}, l.errf("malformed number")
		}
		return Token{Kind: TokNumber, Val: v, Line: line}, nil

	case isAlpha(c):
		start := l.pos
		for l.pos < len(l.src) && (isAlpha(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		text := string(l.src[start:l.pos])
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Line: line}, nil
		}
		return Token{Kind: TokIdent, Text: text, Line: line}, nil

	case c == '"':
		l.advance()
		var out []byte
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				e, err := l.escape()
				if err != nil {
					return Token{}, err
				}
				out = append(out, e)
				continue
			}
			out = append(out, ch)
		}
		return Token{Kind: TokString, Text: string(out), Line: line}, nil

	case c == '\'':
		l.advance()
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated char literal")
		}
		ch := l.advance()
		var v int64
		if ch == '\\' {
			e, err := l.escape()
			if err != nil {
				return Token{}, err
			}
			v = int64(e)
		} else {
			v = int64(ch)
		}
		if l.pos >= len(l.src) || l.advance() != '\'' {
			return Token{}, l.errf("unterminated char literal")
		}
		return Token{Kind: TokChar, Val: v, Line: line}, nil
	}

	// Operators and punctuation.
	l.advance()
	two := func(next byte, k2, k1 TokKind) Token {
		if l.peek() == next {
			l.advance()
			return Token{Kind: k2, Line: line}
		}
		return Token{Kind: k1, Line: line}
	}
	switch c {
	case '(':
		return Token{Kind: TokLParen, Line: line}, nil
	case ')':
		return Token{Kind: TokRParen, Line: line}, nil
	case '{':
		return Token{Kind: TokLBrace, Line: line}, nil
	case '}':
		return Token{Kind: TokRBrace, Line: line}, nil
	case '[':
		return Token{Kind: TokLBracket, Line: line}, nil
	case ']':
		return Token{Kind: TokRBracket, Line: line}, nil
	case ';':
		return Token{Kind: TokSemi, Line: line}, nil
	case ',':
		return Token{Kind: TokComma, Line: line}, nil
	case '?':
		return Token{Kind: TokQuestion, Line: line}, nil
	case ':':
		return Token{Kind: TokColon, Line: line}, nil
	case '~':
		return Token{Kind: TokTilde, Line: line}, nil
	case '^':
		return Token{Kind: TokCaret, Line: line}, nil
	case '%':
		return Token{Kind: TokPercent, Line: line}, nil
	case '/':
		return Token{Kind: TokSlash, Line: line}, nil
	case '=':
		return two('=', TokEq, TokAssign), nil
	case '!':
		return two('=', TokNe, TokBang), nil
	case '+':
		if l.peek() == '+' {
			l.advance()
			return Token{Kind: TokPlusPlus, Line: line}, nil
		}
		return two('=', TokPlusAssign, TokPlus), nil
	case '-':
		if l.peek() == '-' {
			l.advance()
			return Token{Kind: TokMinusMinus, Line: line}, nil
		}
		return two('=', TokMinusAssign, TokMinus), nil
	case '*':
		return Token{Kind: TokStar, Line: line}, nil
	case '&':
		return two('&', TokAndAnd, TokAmp), nil
	case '|':
		return two('|', TokOrOr, TokPipe), nil
	case '<':
		if l.peek() == '<' {
			l.advance()
			return Token{Kind: TokShl, Line: line}, nil
		}
		return two('=', TokLe, TokLt), nil
	case '>':
		if l.peek() == '>' {
			l.advance()
			return Token{Kind: TokShr, Line: line}, nil
		}
		return two('=', TokGe, TokGt), nil
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}

func (l *Lexer) escape() (byte, error) {
	if l.pos >= len(l.src) {
		return 0, l.errf("unterminated escape")
	}
	switch e := l.advance(); e {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	default:
		return 0, l.errf("unknown escape \\%c", e)
	}
}
