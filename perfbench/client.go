package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTP names this benchmark relies on; they are the server's wire contract.
const (
	ctQuery       = "application/sparql-query"
	ctUpdate      = "application/sparql-update"
	ctResultsJSON = "application/sparql-results+json"
	hdrCache      = "X-Turbohom-Cache"
	hdrError      = "X-Turbohom-Error"
	hdrSpan       = "X-Bench-Span" // ladder only: the client span a request belongs to
)

// client sends SPARQL protocol requests over at most conns connections.
type client struct {
	hc   *http.Client
	base string // http://host:port
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what one request produced, as the benchmark checks it.
type reply struct {
	rows   int   // solutions in a query response
	bytes  int   // response body size
	cached bool  // X-Turbohom-Cache: hit
	err    error // transport error, bad status, error trailer or malformed document
	// done is when the last body byte and the trailers had arrived; decode
	// is the row-count scan that followed.
	done   time.Time
	decode time.Duration
}

// do sends one request and reads the whole response, trailers included. A
// read's row count comes from scanRows; buf is reused across calls.
func (c *client) do(ctx context.Context, r *request, buf *bytes.Buffer, span string) reply {
	ct := ctQuery
	if r.write {
		ct = ctUpdate
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/sparql", strings.NewReader(r.text))
	if err != nil {
		return reply{err: err, done: time.Now()}
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", ctResultsJSON)
	if span != "" {
		req.Header.Set(hdrSpan, span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err, done: time.Now()}
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	out := reply{bytes: buf.Len(), cached: resp.Header.Get(hdrCache) == "hit", done: time.Now()}
	switch {
	case err != nil:
		out.err = fmt.Errorf("reading body: %w", err)
	case r.write && resp.StatusCode != http.StatusNoContent:
		out.err = fmt.Errorf("update status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	case !r.write && resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("query status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	case resp.Trailer.Get(hdrError) != "":
		out.err = fmt.Errorf("error trailer: %s", resp.Trailer.Get(hdrError))
	case !r.write:
		out.rows, out.err = scanRows(buf.Bytes())
		out.decode = time.Since(out.done)
	}
	return out
}

// get fetches a small document (health, durability probe).
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// The server's JSON results writer puts every solution on its own line
// between this head and tail; literals never contain a raw newline (JSON
// escapes it), so each newline between them starts a row.
var (
	docHead   = []byte(`{"head":{"vars":[`)
	docTail   = []byte("\n]}}\n")
	docMarker = []byte(`]},"results":{"bindings":[`)
)

var errMalformed = errors.New("malformed results document")

// scanRows counts the solutions in a SPARQL JSON results document without
// decoding terms, checking the document's frame: head, bindings array, one
// object per row line, closing tail.
func scanRows(doc []byte) (int, error) {
	if !bytes.HasPrefix(doc, docHead) || !bytes.HasSuffix(doc, docTail) {
		return 0, errMalformed
	}
	i := bytes.Index(doc, docMarker)
	if i < 0 || bytes.IndexByte(doc[:i], '\n') >= 0 {
		return 0, errMalformed
	}
	body := doc[i+len(docMarker) : len(doc)-len(docTail)]
	if len(body) == 0 {
		return 0, nil
	}
	n := bytes.Count(body, []byte("\n{"))
	if n != bytes.Count(body, []byte{'\n'}) || body[0] != '\n' || body[len(body)-1] != '}' {
		return 0, errMalformed
	}
	return n, nil
}
