package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records a span around every call the benchmark makes into a
// layer, from the benchmark's own code. Spans stay in memory and are
// written as JSON lines when the run ends; the summarizer turns a trace
// file into per-layer self times and the per-layer metrics.
//
// Parent links: the router derives every backend request's context from
// the client request (or from the context passed to Join/Leave), so a
// span id stored in that context reaches the wrapped Transport and links
// each backend call to the router or coordinator span that caused it.
// Client requests carry their span id to the router in spanHeader.

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	N      int64  `json:"n,omitempty"`     // entries or keys carried
	Bytes  int64  `json:"bytes,omitempty"` // request bytes sent
	Resp   int64  `json:"resp,omitempty"`  // response bytes received
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span id (0 when tracing is off).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since records a root span named name from start until now.
func (t *tracer) since(name string, start time.Time, n int64) {
	if t == nil {
		return
	}
	t.add(span{ID: t.newID(), Name: name, Start: int64(start.Sub(t.epoch)), End: t.now(), N: n})
}

type spanKey struct{}

const spanHeader = "X-Bench-Span"

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// spanName turns a URL path into a span name: "/checkpoint/take" under
// prefix "backend" becomes "backend.checkpoint.take".
func spanName(prefix, path string) string {
	p := strings.Trim(path, "/")
	if p == "" {
		p = "root"
	}
	return prefix + "." + strings.ReplaceAll(p, "/", ".")
}

// traceHandler wraps the router's handler: each request gets a span
// whose id is stored in the request context and whose parent is the
// client span named in spanHeader.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.newID()
		start := t.now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
		t.add(span{ID: id, Parent: parent, Name: spanName("router", r.URL.Path),
			Start: start, End: t.now(), Bytes: r.ContentLength})
	})
}

// traceTransport wraps the router's Transport seam: each backend call is
// a span from the request until its response body is closed.
type traceTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{Parent: spanFrom(req.Context()), Name: spanName("backend", req.URL.Path),
		Start: tt.t.now()}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.ID, s.End = tt.t.newID(), tt.t.now()
		tt.t.add(s)
		return resp, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// tracedBody ends its span when the caller closes the response body.
type tracedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Resp += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.ID, b.s.End = b.t.newID(), b.t.now()
		b.t.add(b.s)
	})
	return err
}

// traceRecord is one line of a trace file: a span, or the run's final
// counter snapshot.
type traceRecord struct {
	Span     *span              `json:"span,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// write stores the spans and the counter snapshot as JSON lines.
func (t *tracer) write(path string, counters map[string]float64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(traceRecord{Span: &spans[i]}); err != nil {
			return err
		}
	}
	if err := enc.Encode(traceRecord{Counters: counters}); err != nil {
		return err
	}
	return w.Flush()
}

// readTrace loads a trace file.
func readTrace(path string) ([]span, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	var spans []span
	counters := map[string]float64{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var rec traceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("reading %s: %w", path, err)
		}
		if rec.Span != nil {
			spans = append(spans, *rec.Span)
		}
		for k, v := range rec.Counters {
			counters[k] = v
		}
	}
	return spans, counters, nil
}

// spanTree indexes spans by name and by parent, with each span's self
// time: its duration minus the part of it that its children cover.
type spanTree struct {
	byID   map[uint64]*span
	byName map[string][]*span
	kids   map[uint64][]*span
	self   map[uint64]int64
}

func buildTree(spans []span) *spanTree {
	st := &spanTree{byID: map[uint64]*span{}, byName: map[string][]*span{}, kids: map[uint64][]*span{}, self: map[uint64]int64{}}
	for i := range spans {
		s := &spans[i]
		st.byID[s.ID] = s
		st.byName[s.Name] = append(st.byName[s.Name], s)
		if s.Parent != 0 {
			st.kids[s.Parent] = append(st.kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		st.self[s.ID] = (s.End - s.Start) - covered(s, st.kids[s.ID])
	}
	return st
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(p *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// named returns the spans called name; with parent set, only those
// whose parent span is called parent.
func (st *spanTree) named(name, parent string) []*span {
	if parent == "" {
		return st.byName[name]
	}
	var out []*span
	for _, s := range st.byName[name] {
		if p := st.byID[s.Parent]; p != nil && p.Name == parent {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the spans' durations (or self times) in unit.
func (st *spanTree) durs(spans []*span, self bool, unit time.Duration) []float64 {
	out := make([]float64, 0, len(spans))
	for _, s := range spans {
		d := s.End - s.Start
		if self {
			d = st.self[s.ID]
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// children returns the spans named name whose parent is one of parents.
func (st *spanTree) children(parents []*span, name string) []*span {
	var out []*span
	for _, p := range parents {
		for _, k := range st.kids[p.ID] {
			if k.Name == name {
				out = append(out, k)
			}
		}
	}
	return out
}

// totals sums the spans' durations (ns), request and response bytes.
func totals(spans []*span) (dur, bytes, resp int64) {
	for _, s := range spans {
		dur += s.End - s.Start
		bytes += s.Bytes
		resp += s.Resp
	}
	return dur, bytes, resp
}

// selfTable renders per-span-name counts, durations and self times.
func (st *spanTree) selfTable() string {
	var b strings.Builder
	names := make([]string, 0, len(st.byName))
	for n := range st.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString(fmt.Sprintf("%-32s %8s %12s %12s %12s %12s %14s\n",
		"span", "count", "p50_us", "p99_us", "self_p50_us", "self_p99_us", "self_total_ms"))
	for _, n := range names {
		d := st.durs(st.byName[n], false, time.Microsecond)
		s := st.durs(st.byName[n], true, time.Microsecond)
		total := 0.0
		for _, x := range s {
			total += x
		}
		b.WriteString(fmt.Sprintf("%-32s %8d %12.1f %12.1f %12.1f %12.1f %14.2f\n",
			n, len(d), quantile(d, 0.5), quantile(d, 0.99), quantile(s, 0.5), quantile(s, 0.99), total/1000))
	}
	return b.String()
}
