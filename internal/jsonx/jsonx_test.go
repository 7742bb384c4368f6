package jsonx

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestAppendStringMatchesMarshal: AppendString escapes as json.Marshal
// does.
func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain", "env:mode:0", `quote " and \ backslash`, "<a href='x'>&amp;</a>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "caf\u00e9 \u2028 \u2029 \U0001F600",
		"bad \xff utf-8 \xc3", "\xed\xa0\x80 surrogate bytes",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	}
}

// TestReadMatchesUnmarshal: a value the reader accepts decodes as
// encoding/json decodes it, and one encoding/json rejects the reader
// rejects too.
func TestReadMatchesUnmarshal(t *testing.T) {
	read := map[string]func(r *Reader) any{
		"int":    func(r *Reader) any { return r.Int() },
		"uint":   func(r *Reader) any { return r.Uint() },
		"bool":   func(r *Reader) any { return r.Bool() },
		"string": func(r *Reader) any { return string(r.Str()) },
	}
	zero := map[string]func() any{
		"int":    func() any { return new(int64) },
		"uint":   func() any { return new(uint64) },
		"bool":   func() any { return new(bool) },
		"string": func() any { return new(string) },
	}
	for kind, inputs := range map[string][]string{
		"int": {"0", "-0", "7", " 42 ", "-17", "9223372036854775807", "-9223372036854775808",
			"9223372036854775808", "-9223372036854775809", "01", "1.0", "1e3", "-", "+1", "null", `"1"`, "true"},
		"uint": {"0", "18446744073709551615", "18446744073709551616", "-0", "-1", "null"},
		"bool": {"true", "false", "null", "tru", "1", `"true"`},
		"string": {`""`, `"abc"`, `"a\"b\\c\/d"`, `"\b\f\n\r\t"`, `"\u0041\u00e9\u2028"`,
			`"\ud83d\ude00"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ud83d\uZZZZ"`,
			"\"bad \xff\"", "\"ctl \x01\"", `"\x"`, `"\u12"`, `"unterminated`, "null", "7"},
	} {
		for _, in := range inputs {
			r := NewReader([]byte(in))
			got := read[kind](r)
			r.End()
			want := zero[kind]()
			jerr := json.Unmarshal([]byte(in), want)
			switch {
			case r.Err() == nil && jerr != nil:
				t.Errorf("%s %q: read %v, json.Unmarshal rejects it: %v", kind, in, got, jerr)
			case r.Err() == nil && !reflect.DeepEqual(got, reflect.ValueOf(want).Elem().Interface()):
				t.Errorf("%s %q: read %v, json.Unmarshal %v", kind, in, got, reflect.ValueOf(want).Elem())
			case r.Err() != nil && jerr == nil && !strings.Contains(in, ".") && !strings.Contains(in, "e"):
				t.Errorf("%s %q: reader rejects it (%v), json.Unmarshal reads %v", kind, in, r.Err(), reflect.ValueOf(want).Elem())
			}
		}
	}
}

// TestObjectKeys: known keys are found in any order and escaped, unknown
// keys skipped; a repeated key, or one that only case-folds to a known
// key, is an error.
func TestObjectKeys(t *testing.T) {
	keys := []string{"id", "name", "seed"}
	for in, want := range map[string]string{
		`{"id":1,"name":"a","seed":2}`:      "id name seed",
		`{"seed":2,"id":1}`:                 "seed id",
		` { "id" : 1 , "x":[{"y":null}] } `: "id",
		`{}`:                                "",
		`null`:                              "",
		`{"id":1,"id":2}`:                   "error",
		`{"ID":1}`:                          "error",
		"{\"\u017feed\":1}":                 "error", // long s folds to s
		`{"id":1,}`:                         "error",
		`{"id" 1}`:                          "error",
		`[1]`:                               "error",
	} {
		r := NewReader([]byte(in))
		var got []string
		for o := r.Object(keys); o.Next(); {
			got = append(got, o.Key)
			r.Skip()
		}
		r.End()
		if r.Err() != nil {
			got = []string{"error"}
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s: keys %q, want %q (err %v)", in, got, want, r.Err())
		}
	}
}

// FuzzSkip: whatever Skip accepts as a whole document is valid JSON, and
// valid JSON nested no deeper than maxDepth is accepted.
func FuzzSkip(f *testing.F) {
	for _, s := range []string{`{"a":[1,2.5e-3,true,null,"xA"]}`, `[]`, `-0.0`, `"\ud83d"`, `[[[]]]`, `{"a" : { } }`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		r.Skip()
		r.End()
		valid := json.Valid(data)
		if r.Err() == nil && !valid {
			t.Fatalf("Skip accepted invalid JSON %q", data)
		}
		if r.Err() != nil && valid && strings.Count(string(data), "[")+strings.Count(string(data), "{") < maxDepth {
			t.Fatalf("Skip rejected valid JSON %q: %v", data, r.Err())
		}
	})
}
