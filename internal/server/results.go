package server

import (
	"bytes"
	"encoding/xml"
	"io"
	"mime"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/rdf"
)

// The two result formats of the SPARQL 1.1 Protocol this server speaks.
const (
	ctJSON = "application/sparql-results+json"
	ctXML  = "application/sparql-results+xml"
)

// xmlResultsNS is the W3C namespace of the SPARQL Query Results XML Format.
const xmlResultsNS = "http://www.w3.org/2005/sparql-results#"

// acceptable maps one Accept media range to the result format it selects.
// serverPref breaks q-value ties: JSON is the server's preferred format.
func acceptable(mediaRange string) (ct string, serverPref int, ok bool) {
	switch mediaRange {
	case ctJSON, "application/json":
		return ctJSON, 0, true
	case ctXML, "application/xml", "text/xml":
		return ctXML, 1, true
	case "application/*", "*/*":
		return ctJSON, 0, true
	}
	return "", 0, false
}

// negotiate resolves an Accept header to a result content type. An absent or
// empty header means the client takes anything (JSON, the server default);
// otherwise the supported range with the highest q-value wins, ties broken
// toward JSON, and no acceptable range with q > 0 means 406.
func negotiate(accept string) (ct string, ok bool) {
	if strings.TrimSpace(accept) == "" {
		return ctJSON, true
	}
	bestQ := -1.0
	bestPref := 0
	best := ""
	for _, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(part)
		if err != nil {
			continue // a malformed range never matches; others may
		}
		candidate, pref, supported := acceptable(mt)
		if !supported {
			continue
		}
		q := 1.0
		if qs, present := params["q"]; present {
			v, err := strconv.ParseFloat(qs, 64)
			if err != nil || v < 0 {
				continue
			}
			q = v
		}
		if q == 0 {
			continue // explicitly refused
		}
		if q > bestQ || (q == bestQ && pref < bestPref) {
			bestQ, bestPref, best = q, pref, candidate
		}
	}
	return best, best != ""
}

// resultWriter serializes one SPARQL results document, streaming: writeHead
// once, then writeRow per solution, then finish — or writeBoolean alone for
// an ASK. Implementations put one solution per output line so a paced reader
// (and a human) can consume the stream row by row.
type resultWriter interface {
	writeHead(vars []string) error
	writeRow(row []rdf.Term) error
	writeBoolean(b bool) error
	finish() error
}

func newResultWriter(ct string, w io.Writer) resultWriter {
	if ct == ctXML {
		return &xmlWriter{w: w}
	}
	return &jsonWriter{w: w}
}

// jsonWriter streams the SPARQL 1.1 Query Results JSON Format. Key order is
// fixed by construction, so the byte stream is deterministic. A row costs no
// allocation: each binding key is encoded once per response by writeHead,
// strings go through appendJSONString, and the row buffer is reused.
type jsonWriter struct {
	w    io.Writer
	keys [][]byte // per variable, the encoded `"name":` prefix of its binding
	rows int
	buf  []byte
}

// jsonSafe marks the ASCII bytes appendJSONString copies through unchanged:
// everything but control bytes, '"', '\\' and the HTML-sensitive '<', '>',
// '&' that encoding/json escapes by default.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte-identical to what
// json.Marshal writes for it: the short escapes for '"', '\\', \b, \f, \n,
// \r and \t; \u00xx for the other control bytes and for '<', '>', '&';
// \u2028 and \u2029 for the line and paragraph separators; and \ufffd for
// each byte of invalid UTF-8. Runs of safe bytes are copied in one append.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		}
		if esc != "" {
			dst = append(dst, s[start:i]...)
			dst = append(dst, esc...)
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func (j *jsonWriter) writeHead(vars []string) error {
	j.keys = make([][]byte, len(vars))
	for i, v := range vars {
		j.keys[i] = append(appendJSONString(nil, v), ':')
	}
	b := append(j.buf[:0], `{"head":{"vars":[`...)
	for i, k := range j.keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k[:len(k)-1]...) // the key without its ':'
	}
	b = append(b, "]},\"results\":{\"bindings\":["...)
	j.buf = b
	_, err := j.w.Write(b)
	return err
}

func (j *jsonWriter) writeRow(row []rdf.Term) error {
	b := j.buf[:0]
	if j.rows > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n{"...)
	wrote := false
	for i, t := range row {
		if t == "" {
			continue // unbound OPTIONAL position: the binding is omitted
		}
		if wrote {
			b = append(b, ',')
		}
		wrote = true
		b = append(b, j.keys[i]...)
		b = appendJSONTerm(b, t)
	}
	b = append(b, '}')
	j.buf = b
	j.rows++
	_, err := j.w.Write(b)
	return err
}

// appendJSONTerm appends one RDF term as a JSON binding object. Only a
// literal whose lexical form holds N-Triples escapes allocates (once, in
// LexicalValue); every other string is a substring of the term.
func appendJSONTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind() {
	case rdf.IRI:
		b = append(b, `{"type":"uri","value":`...)
		b = appendJSONString(b, t.IRIValue())
	case rdf.Blank:
		b = append(b, `{"type":"bnode","value":`...)
		b = appendJSONString(b, string(t[2:]))
	default:
		b = append(b, `{"type":"literal","value":`...)
		b = appendJSONString(b, t.LexicalValue())
		if lang := t.Lang(); lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendJSONString(b, lang)
		} else if dt := t.DatatypeIRI(); dt != "" {
			b = append(b, `,"datatype":`...)
			b = appendJSONString(b, dt)
		}
	}
	return append(b, '}')
}

func (j *jsonWriter) writeBoolean(v bool) error {
	_, err := io.WriteString(j.w, `{"head":{},"boolean":`+strconv.FormatBool(v)+"}\n")
	return err
}

func (j *jsonWriter) finish() error {
	_, err := io.WriteString(j.w, "\n]}}\n")
	return err
}

// xmlWriter streams the SPARQL Query Results XML Format.
type xmlWriter struct {
	w    io.Writer
	vars []string
	buf  bytes.Buffer
}

// xstr appends s with XML special characters escaped (quotes included, so
// the same helper serves attribute values and character data).
func xstr(b *bytes.Buffer, s string) {
	xml.EscapeText(b, []byte(s)) //nolint:errcheck // bytes.Buffer cannot fail
}

func (x *xmlWriter) writeHead(vars []string) error {
	x.vars = vars
	b := &x.buf
	b.Reset()
	b.WriteString(xml.Header)
	b.WriteString(`<sparql xmlns="` + xmlResultsNS + "\">\n<head>")
	for _, v := range vars {
		b.WriteString(`<variable name="`)
		xstr(b, v)
		b.WriteString(`"/>`)
	}
	b.WriteString("</head>\n<results>")
	_, err := x.w.Write(b.Bytes())
	return err
}

func (x *xmlWriter) writeRow(row []rdf.Term) error {
	b := &x.buf
	b.Reset()
	b.WriteString("\n<result>")
	for i, t := range row {
		if t == "" {
			continue
		}
		b.WriteString(`<binding name="`)
		xstr(b, x.vars[i])
		b.WriteString(`">`)
		writeXMLTerm(b, t)
		b.WriteString("</binding>")
	}
	b.WriteString("</result>")
	_, err := x.w.Write(b.Bytes())
	return err
}

func writeXMLTerm(b *bytes.Buffer, t rdf.Term) {
	switch t.Kind() {
	case rdf.IRI:
		b.WriteString("<uri>")
		xstr(b, t.IRIValue())
		b.WriteString("</uri>")
	case rdf.Blank:
		b.WriteString("<bnode>")
		xstr(b, string(t[2:]))
		b.WriteString("</bnode>")
	default:
		if lang := t.Lang(); lang != "" {
			b.WriteString(`<literal xml:lang="`)
			xstr(b, lang)
			b.WriteString(`">`)
		} else if dt := t.DatatypeIRI(); dt != "" {
			b.WriteString(`<literal datatype="`)
			xstr(b, dt)
			b.WriteString(`">`)
		} else {
			b.WriteString("<literal>")
		}
		xstr(b, t.LexicalValue())
		b.WriteString("</literal>")
	}
}

func (x *xmlWriter) writeBoolean(v bool) error {
	var b bytes.Buffer
	b.WriteString(xml.Header)
	b.WriteString(`<sparql xmlns="` + xmlResultsNS + "\">\n<head></head>\n<boolean>")
	b.WriteString(strconv.FormatBool(v))
	b.WriteString("</boolean>\n</sparql>\n")
	_, err := x.w.Write(b.Bytes())
	return err
}

func (x *xmlWriter) finish() error {
	_, err := io.WriteString(x.w, "\n</results>\n</sparql>\n")
	return err
}
