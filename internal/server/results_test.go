package server

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/rdf"
)

// FuzzJSONString pins appendJSONString to encoding/json byte for byte: the
// result writer's output must not depend on which encoder produced it.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"",
		"plain ascii",
		"\x00\x01\x07\x08\x09\x0a\x0b\x0c\x0d\x1b\x1f\x7f",
		`quote " backslash \ slash /`,
		"<script>&amp;</script>",
		"line\u2028para\u2029end",
		"\xff\xfe bad \xc3\x28 utf8 \xe2\x82",
		"multi-byte: é ü 日本語 😀 \U0010FFFF",
		"\xed\xa0\x80 surrogate half",
		"http://example.org/a?b=1&c=<2>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		// Appending must extend dst, never clobber it.
		if got := appendJSONString([]byte("x:"), s); !bytes.Equal(got, append([]byte("x:"), want...)) {
			t.Fatalf("appendJSONString with prefix = %s", got)
		}
	})
}

// writerTerms covers every binding shape writeRow emits, with strings that
// need JSON escapes but no N-Triples escapes.
var writerTerms = []rdf.Term{
	rdf.NewIRI("http://example.org/a?b=1&c=<2>"),
	rdf.NewBlank("b0"),
	rdf.NewLiteral("plain <&> \u00e9 caf\u00e9"),
	rdf.NewLangLiteral("bonjour", "fr"),
	rdf.NewTypedLiteral("42", rdf.XSDInteger),
}

// TestJSONWriteRowZeroAllocs pins the writer's per-row cost: once the head
// has encoded the keys, a row of IRI, blank, plain, language-tagged and
// datatyped terms is written without allocating.
func TestJSONWriteRowZeroAllocs(t *testing.T) {
	vars := []string{"iri", "blank", "plain", "lang", "typed"}
	j := &jsonWriter{w: io.Discard}
	if err := j.writeHead(vars); err != nil {
		t.Fatal(err)
	}
	for i, term := range writerTerms {
		row := make([]rdf.Term, len(vars))
		row[i] = term
		if allocs := testing.AllocsPerRun(100, func() { j.writeRow(row) }); allocs != 0 { //nolint:errcheck // io.Discard
			t.Errorf("writeRow(%s) = %v allocs per row, want 0", term, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { j.writeRow(writerTerms) }); allocs != 0 { //nolint:errcheck // io.Discard
		t.Errorf("writeRow(all five terms) = %v allocs per row, want 0", allocs)
	}
	// A lexical form holding N-Triples escapes is unescaped into one fresh
	// string by LexicalValue; that is the only per-row allocation left.
	escaped := []rdf.Term{"", "", rdf.NewLiteral("say \"hi\"\n"), "", ""}
	if allocs := testing.AllocsPerRun(100, func() { j.writeRow(escaped) }); allocs > 1 { //nolint:errcheck // io.Discard
		t.Errorf("writeRow(escaped literal) = %v allocs per row, want <= 1", allocs)
	}
}

// TestJSONWriterMatchesMarshal checks a whole document, keys written once
// in the head included, against one assembled from json.Marshal of each
// string.
func TestJSONWriterMatchesMarshal(t *testing.T) {
	vars := []string{"iri", "blank", "plain", "lang", "typed", "unbound", "<&>"}
	row := append(append([]rdf.Term(nil), writerTerms...), "", rdf.NewLiteral("say \"hi\"\n"))

	var got bytes.Buffer
	j := &jsonWriter{w: &got}
	if err := j.writeHead(vars); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := j.writeRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.finish(); err != nil {
		t.Fatal(err)
	}

	m := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	want := `{"head":{"vars":[`
	for i, v := range vars {
		if i > 0 {
			want += ","
		}
		want += m(v)
	}
	want += `]},"results":{"bindings":[`
	bindings := m("iri") + `:{"type":"uri","value":` + m("http://example.org/a?b=1&c=<2>") + `},` +
		m("blank") + `:{"type":"bnode","value":` + m("b0") + `},` +
		m("plain") + `:{"type":"literal","value":` + m("plain <&> \u00e9 caf\u00e9") + `},` +
		m("lang") + `:{"type":"literal","value":` + m("bonjour") + `,"xml:lang":` + m("fr") + `},` +
		m("typed") + `:{"type":"literal","value":` + m("42") + `,"datatype":` + m(rdf.XSDInteger) + `},` +
		m("<&>") + `:{"type":"literal","value":` + m("say \"hi\"\n") + `}`
	want += "\n{" + bindings + "},\n{" + bindings + "}\n]}}\n"
	if got.String() != want {
		t.Fatalf("document differs:\ngot  %s\nwant %s", got.String(), want)
	}
}
