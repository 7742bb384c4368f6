package lang

// LexAll tokenizes the whole input.
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
