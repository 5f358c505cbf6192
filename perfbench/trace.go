package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
)

// Spans are recorded only at the boundaries reachable from outside the
// program: the benchmark's own calls, a wrapping http.RoundTripper, a
// wrapping http.Handler, a wrapping DurableStore/DurableLog, a timing
// Notifier and a timing coord.Site. A nil *tracer records nothing, and the
// untraced run installs none of the wrappers.

// Span is one timed interval. Parent and Req link it to the span that
// caused it and to the client request it belongs to; Bytes carries a size
// where the boundary sees one (request body, WAL append, pulled payload).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: monotonic nanoseconds since the tracer began.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s Span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// within returns the spans that started in [from, to): the timed phase.
func (t *tracer) within(from, to int64) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the stamp and then every span as one JSON object per line.
func (t *tracer) write(path string, stamp any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span ID to its duration minus the union of its
// children's intervals (clipped to the parent).
func selfTimes(spans []Span) map[uint64]int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// ---- client side ----

const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// clientSpan tracks the benchmark call in flight on one connection role;
// each role drives its own transport from a single goroutine, so one
// current span per transport is unambiguous.
type clientSpan struct {
	id, req atomic.Uint64
}

func (c *clientSpan) set(id, req uint64) { c.id.Store(id); c.req.Store(req) }

// tracingTransport records a nethttp span per round trip (request written
// to response headers read) and tags the request so the server-side
// handler span can name its parent.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
	cur  *clientSpan
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, parent, req := t.tr.newID(), t.cur.id.Load(), t.cur.req.Load()
	r = r.Clone(r.Context())
	r.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	r.Header.Set(hdrReq, strconv.FormatUint(req, 10))
	start := t.tr.now()
	resp, err := t.base.RoundTrip(r)
	t.tr.add(Span{ID: id, Parent: parent, Req: req, Name: "nethttp.roundtrip",
		Start: start, End: t.tr.now(), Bytes: r.ContentLength, Failed: err != nil})
	return resp, err
}

// newTransport is one loopback connection role: at most one connection to
// the host, wrapped for tracing when tr is non-nil.
func newTransport(tr *tracer, cur *clientSpan) http.RoundTripper {
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	if tr == nil {
		return base
	}
	return &tracingTransport{base: base, tr: tr, cur: cur}
}

// ---- server side ----

// tracingHandler records one span per request under the route's layer
// name. While a POST /v1/events request is in its handler, inEvents holds
// that span's ID and request, so the durable and standing wrappers called
// synchronously from it can name their parent (the benchmark keeps at most
// one events request in flight per server).
type tracingHandler struct {
	inner    http.Handler
	tr       *tracer
	inEvents clientSpan
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	name := "ecmserver.other"
	switch {
	case r.URL.Path == "/v1/events":
		name = "ecmserver.events"
	case r.URL.Path == "/v1/query" && r.URL.Query().Get("direct") == "1":
		name = "ecmserver.direct"
	case r.URL.Path == "/v1/query":
		name = "ecmserver.query"
	case r.URL.Path == "/v1/snapshot":
		name = "ecmserver.snapshot"
	}
	id := h.tr.newID()
	if name == "ecmserver.events" {
		h.inEvents.set(id, req)
		defer h.inEvents.set(0, 0)
	}
	start := h.tr.now()
	h.inner.ServeHTTP(w, r)
	h.tr.add(Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: h.tr.now()})
}

// tracingStore wraps a DurableStore: blob saves are checkpoint spans, log
// appends and syncs are WAL spans parented to the events request in flight.
type tracingStore struct {
	ecmsketch.DurableStore
	tr *tracer
	h  *tracingHandler
}

func (s *tracingStore) Save(name string, data []byte) error {
	start := s.tr.now()
	err := s.DurableStore.Save(name, data)
	s.tr.add(Span{Name: "durable.save." + name, Start: start, End: s.tr.now(), Bytes: int64(len(data)), Failed: err != nil})
	return err
}

func (s *tracingStore) OpenLog(name string) (ecmsketch.DurableLog, error) {
	l, err := s.DurableStore.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return &tracingLog{DurableLog: l, s: s}, nil
}

type tracingLog struct {
	ecmsketch.DurableLog
	s *tracingStore
}

func (l *tracingLog) span(name string, bytes int64, f func() error) error {
	parent, req := l.s.h.inEvents.id.Load(), l.s.h.inEvents.req.Load()
	start := l.s.tr.now()
	err := f()
	l.s.tr.add(Span{Parent: parent, Req: req, Name: name, Start: start, End: l.s.tr.now(), Bytes: bytes, Failed: err != nil})
	return err
}

func (l *tracingLog) Append(p []byte) error {
	return l.span("durable.append", int64(len(p)), func() error { return l.DurableLog.Append(p) })
}

func (l *tracingLog) Sync() error {
	return l.span("durable.sync", 0, l.DurableLog.Sync)
}

// tracingNotifier times the standing-query evaluation the engine runs
// synchronously after each landed batch.
type tracingNotifier struct {
	ecmsketch.Notifier
	tr *tracer
	h  *tracingHandler
}

func (n *tracingNotifier) NoteEvents(events []ecmsketch.Event) {
	parent, req := n.h.inEvents.id.Load(), n.h.inEvents.req.Load()
	start := n.tr.now()
	n.Notifier.NoteEvents(events)
	n.tr.add(Span{Parent: parent, Req: req, Name: "standing.eval", Start: start, End: n.tr.now(), Bytes: int64(len(events))})
}

// ---- coordinator side ----

// tracingSite times each delta pull of one coordinator site (the only pull
// a delta-mode coordinator makes), parented to the Refresh span in flight.
// A site is pulled by one worker at a time, so its own transport (driven
// through pull) parents round trips unambiguously.
type tracingSite struct {
	coord.Site
	tr      *tracer
	refresh *clientSpan
	pull    clientSpan
}

func (s *tracingSite) Delta(since core.Cursor) ([]byte, core.Cursor, bool, int, error) {
	id, req := s.tr.newID(), s.refresh.req.Load()
	s.pull.set(id, req)
	start := s.tr.now()
	p, cur, full, n, err := s.Site.Delta(since)
	name := "coord.pull.delta"
	if full {
		name = "coord.pull.full"
	}
	s.tr.add(Span{ID: id, Parent: s.refresh.id.Load(), Req: req, Name: name,
		Start: start, End: s.tr.now(), Bytes: int64(n), Failed: err != nil})
	return p, cur, full, n, err
}
