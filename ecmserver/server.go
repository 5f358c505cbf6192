// Package ecmserver is the embeddable HTTP front end over an ECM-sketch
// engine: collectors POST arrivals, dashboards GET sliding-window
// estimates, and a coordinator can pull the serialized sketch to aggregate
// several sites (see cmd/ecmcoord, or ecmsketch.Merge programmatically).
//
// The engine behind the API is a lock-striped ecmsketch.Sharded, so
// concurrent collectors contend per key stripe instead of on one global
// lock. Routes are versioned under /v1/ (POST /v1/add, POST /v1/batch,
// POST /v1/events, GET /v1/estimate, ...); the unversioned paths of
// earlier deployments remain as thin aliases. cmd/ecmserve wires this
// package behind flags; ecmclient speaks the /v1 API as a typed Go client.
//
// Batch ingest bodies are CSV lines on /v1/batch and, on /v1/events, a
// JSON array or — what ecmclient sends — a binary event run under
// Content-Type application/x-ecm-events (see handleEvents), validated whole
// so a malformed one gets 400 with accepted 0. Bodies over MaxIngestBody
// get 413.
package ecmserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecmsketch"
	"ecmsketch/internal/core"
	"ecmsketch/internal/standing"
	"ecmsketch/internal/wire"
)

// Config configures the sketch engine behind the HTTP API.
type Config struct {
	Epsilon      float64
	Delta        float64
	WindowLength uint64
	Algorithm    string // "eh", "dw" or "rw"
	UpperBound   uint64
	Seed         uint64
	// TopK enables the /v1/topk endpoint tracking this many hottest keys.
	TopK int
	// Shards is the lock-stripe count of the engine; 0 means GOMAXPROCS.
	Shards int
	// MergeTTL bounds the staleness of global queries (selfjoin, total,
	// sketch pulls) served from the engine's cached merged view; 0 means
	// always fresh.
	MergeTTL time.Duration
	// RefreshInterval, when positive, rebuilds stale merged views in a
	// background goroutine instead of on the tail of whichever reader trips
	// the TTL; set it at or below MergeTTL. Servers configured with it
	// should be Closed on shutdown.
	RefreshInterval time.Duration
	// AuthToken, when non-empty, requires "Authorization: Bearer <AuthToken>"
	// on every route (constant-time compared); unauthenticated requests get
	// 401. Empty leaves the server open, as before.
	AuthToken string
	// EnableProfiling mounts net/http/pprof under /debug/pprof/ for CPU and
	// heap profiling of live ingest/merge workloads. The mount registers on
	// the same mux every API route lives on, inside the bearer wrapper: with
	// AuthToken set, profiles require the token like everything else — the
	// profiling surface is never reachable unauthenticated on an
	// authenticated server.
	EnableProfiling bool
	// DataDir, when non-empty, makes the engine durable: epoch, periodic
	// arena snapshots and a write-ahead log of ingested batches persist
	// under this directory, and a restarted server replays to exactly its
	// pre-crash state — same epoch, same cell versions — so coordinators
	// holding delta cursors keep pulling increments instead of
	// re-baselining. Empty (the default) keeps the engine memory-only.
	DataDir string
	// SnapshotInterval is the durable checkpoint cadence (see
	// ecmsketch.DurabilityConfig.SnapshotInterval); meaningful only with
	// DataDir or DurableStore set. 0 checkpoints only at startup and
	// shutdown, letting the WAL grow between them.
	SnapshotInterval time.Duration
	// WALSyncInterval is the WAL fsync cadence (see
	// ecmsketch.DurabilityConfig.SyncInterval): 0 fsyncs every append;
	// a positive interval group-commits in the background.
	WALSyncInterval time.Duration
	// DurableStore, when non-nil, supplies the persistence backend directly
	// (e.g. ecmsketch.NewMemStore in tests) and takes precedence over
	// DataDir.
	DurableStore ecmsketch.DurableStore
}

// Server is an HTTP front end over a sharded ECM-sketch engine. All
// handlers are safe for concurrent use; ingest contends only per key
// stripe.
type Server struct {
	engine  *ecmsketch.Sharded
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler // mux, wrapped with bearer auth when configured

	// topkMu guards the TopK candidate set; the stream itself lives in the
	// shared engine (single ingest, no private second sketch).
	topkMu sync.Mutex
	topk   *ecmsketch.TopK // nil unless TopK > 0

	// standing evaluates continuous queries incrementally off the engine's
	// change feed and fans fired notifications out over /v1/watch (SSE).
	standing *ecmsketch.StandingRegistry
}

// New builds the engine and routes.
func New(cfg Config) (*Server, error) {
	algo, err := ParseAlgo(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	params := ecmsketch.Params{
		Epsilon:      cfg.Epsilon,
		Delta:        cfg.Delta,
		Algorithm:    algo,
		WindowLength: cfg.WindowLength,
		UpperBound:   cfg.UpperBound,
		Seed:         cfg.Seed,
	}
	shCfg := ecmsketch.ShardedConfig{
		Params:          params,
		Shards:          cfg.Shards,
		MergeTTL:        cfg.MergeTTL,
		RefreshInterval: cfg.RefreshInterval,
	}
	store := cfg.DurableStore
	if store == nil && cfg.DataDir != "" {
		store, err = ecmsketch.NewFileStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
	}
	if store != nil {
		shCfg.Durability = &ecmsketch.DurabilityConfig{
			Store:            store,
			SnapshotInterval: cfg.SnapshotInterval,
			SyncInterval:     cfg.WALSyncInterval,
		}
	}
	engine, err := ecmsketch.NewSharded(shCfg)
	if err != nil {
		return nil, err
	}
	return NewOver(cfg, engine)
}

// NewOver builds the routes over an engine the caller already owns (and
// keeps using: the server adds no locking of its own beyond the engine's).
// cfg supplies the reply defaults — WindowLength for query ranges, the
// stats fields — and should match the engine's construction; the engine is
// not rebuilt or validated against it.
func NewOver(cfg Config, engine *ecmsketch.Sharded) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("ecmserver: NewOver requires an engine")
	}
	s := &Server{engine: engine, cfg: cfg, mux: http.NewServeMux()}
	if cfg.TopK > 0 {
		tk, err := ecmsketch.NewTopKOver(cfg.TopK, engine, cfg.WindowLength)
		if err != nil {
			return nil, err
		}
		s.topk = tk
		s.route("GET", "/topk", s.handleTopK)
	}
	s.route("POST", "/add", s.handleAdd)
	s.route("POST", "/batch", s.handleBatch)
	s.route("GET", "/estimate", s.handleEstimate)
	s.route("GET", "/interval", s.handleInterval)
	s.route("GET", "/selfjoin", s.handleSelfJoin)
	s.route("GET", "/total", s.handleTotal)
	s.route("GET", "/stats", s.handleStats)
	s.route("GET", "/sketch", s.handleSketch)
	s.route("POST", "/advance", s.handleAdvance)
	// JSON batch ingest, batched queries and coordinator snapshot pulls
	// exist only under the versioned prefix.
	s.mux.HandleFunc("POST /v1/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/query", s.handleQueryGet)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)

	// Standing queries: the registry re-checks its predicates incrementally
	// on the engine's change feed (synchronously after each mutation's locks
	// release) and pushes fired notifications to /v1/watch streams. The rw
	// engine's randomized expiry is not monotone under pure advances, so it
	// runs with the strict re-check policy.
	s.standing = ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{
		Window:        cfg.WindowLength,
		StrictAdvance: strings.EqualFold(cfg.Algorithm, "rw"),
	})
	s.standing.Bind(engine)
	engine.SetNotifier(s.standing)
	svc := &standing.Service{Reg: s.standing}
	s.mux.HandleFunc("POST /v1/subscribe", svc.HandleSubscribe)
	s.mux.HandleFunc("DELETE /v1/subscribe", svc.HandleUnsubscribe)
	s.mux.HandleFunc("GET /v1/watch", svc.HandleWatch)

	if cfg.EnableProfiling {
		// Registered inside the mux the bearer wrapper guards — see
		// Config.EnableProfiling. The default-mux side effects of importing
		// net/http/pprof are irrelevant here; these are explicit routes.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	s.handler = wire.RequireBearer(cfg.AuthToken, s.mux)
	return s, nil
}

// Close releases server-held background resources: the standing-query hook
// is detached from the engine (and every watch stream ended) before the
// engine's view refresher is stopped. Idempotent.
func (s *Server) Close() error {
	s.engine.SetNotifier(nil)
	return s.engine.Close()
}

// route registers a handler under the versioned /v1 prefix and the legacy
// unversioned path.
func (s *Server) route(method, path string, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" /v1"+path, h)
	s.mux.HandleFunc(method+" "+path, h)
}

// Engine exposes the sketch engine backing the server (e.g. to share it
// with other in-process consumers).
func (s *Server) Engine() *ecmsketch.Sharded { return s.engine }

// Standing exposes the standing-query registry behind /v1/subscribe and
// /v1/watch, for in-process subscribers and tests.
func (s *Server) Standing() *ecmsketch.StandingRegistry { return s.standing }

// ParseAlgo resolves the wire names of the counter algorithms.
func ParseAlgo(s string) (ecmsketch.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "eh":
		return ecmsketch.AlgoEH, nil
	case "dw":
		return ecmsketch.AlgoDW, nil
	case "rw":
		return ecmsketch.AlgoRW, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want eh, dw or rw)", s)
	}
}

// ServeHTTP implements http.Handler. When Config.AuthToken is set, every
// route — legacy aliases included — sits behind the bearer check.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// The /v1 request/reply conventions — key parsing, ?strings=1 encoding,
// the snapshot writer — live in the shared internal/wire codec, which
// cmd/ecmcoord's coordinator surface builds on too, so the two tiers
// cannot drift.
var (
	parseKey  = wire.ParseKey
	parseU64  = wire.ParseU64
	httpError = wire.Error
	respond   = wire.Respond
)

// ingestBatch feeds a batch through the engine's lock-amortized path and
// then registers the keys as TopK candidates without re-ingesting. The
// engine ingests the stream exactly once either way, and always outside
// topkMu — the stripe locks, not the candidate-set mutex, are the
// concurrency bottleneck.
func (s *Server) ingestBatch(events []ecmsketch.Event) {
	s.engine.AddBatch(events)
	if s.topk != nil {
		s.topkMu.Lock()
		for _, ev := range events {
			s.topk.Note(ev.Key)
		}
		s.topkMu.Unlock()
	}
}

// handleAdd registers one arrival: POST /v1/add?key=/home&t=12345[&n=3].
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	key, err := parseKey(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t, err := parseU64(r, "t", 0)
	if err != nil || t == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing or bad t parameter"))
		return
	}
	n, err := parseU64(r, "n", 1)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.ingestBatch([]ecmsketch.Event{{Key: key, Tick: t, N: n}})
	respond(w, map[string]any{"ok": true})
}

// ingestFlushEvery bounds the memory of batch uploads: decoded events are
// applied to the engine in chunks of this many, however long the body.
const ingestFlushEvery = 4096

// MaxIngestBody caps the body of every ingest route (POST /v1/events in
// each format, POST /v1/batch); a longer body is refused with 413.
const MaxIngestBody = 32 << 20

// ingestSink is the one ingest path behind every batch body format:
// decoded events collect in chunk, which is applied to the engine each time
// it fills. Sinks are pooled with their chunk and binary-body buffer.
type ingestSink struct {
	s        *Server
	body     bytes.Buffer
	chunk    []ecmsketch.Event
	accepted int    // events applied so far
	firstErr string // first skipped CSV line
}

var sinkPool = sync.Pool{New: func() any {
	return &ingestSink{chunk: make([]ecmsketch.Event, 0, ingestFlushEvery)}
}}

func (k *ingestSink) add(ev ecmsketch.Event) {
	k.chunk = append(k.chunk, ev)
	if len(k.chunk) == ingestFlushEvery {
		k.flush()
	}
}

func (k *ingestSink) flush() {
	k.s.ingestBatch(k.chunk)
	k.accepted += len(k.chunk)
	k.chunk = k.chunk[:0]
}

// ingestBody decodes one ingest request body into a pooled sink and
// replies with the count applied. A decode error answers 413 when the body
// ran past MaxIngestBody and 400 otherwise; events queued but not yet
// flushed when it struck are dropped.
func (s *Server) ingestBody(w http.ResponseWriter, r *http.Request, decode func(*ingestSink, io.Reader) error) {
	k := sinkPool.Get().(*ingestSink)
	k.s, k.accepted, k.firstErr = s, 0, ""
	defer func() {
		k.s, k.chunk = nil, k.chunk[:0]
		k.body.Reset()
		if k.body.Cap() > 1<<20 {
			k.body = bytes.Buffer{} // do not pin one large upload's buffer
		}
		sinkPool.Put(k)
	}()
	if err := decode(k, http.MaxBytesReader(w, r.Body, MaxIngestBody)); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "accepted": k.accepted})
		return
	}
	k.flush()
	resp := map[string]any{"accepted": k.accepted}
	if k.firstErr != "" {
		resp["firstError"] = k.firstErr
	}
	respond(w, resp)
}

// handleBatch ingests newline-separated "key,tick[,count]" records:
// POST /v1/batch with a text body of at most MaxIngestBody bytes. Returns
// the number of accepted records and the first error encountered, if any.
// Records are applied in chunks as the body streams in, so a huge upload
// costs bounded memory (malformed lines are skipped, as reported, not
// rolled back).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.ingestBody(w, r, (*ingestSink).addCSV)
}

func (k *ingestSink) addCSV(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := parseRecord(line)
		if err != nil {
			if k.firstErr == "" {
				k.firstErr = fmt.Sprintf("line %d: %v", lineNo, err)
			}
			continue
		}
		k.add(ev)
	}
	return sc.Err()
}

// parseRecord parses one "key,tick[,count]" line of /v1/batch.
func parseRecord(line string) (ecmsketch.Event, error) {
	parts := strings.Split(line, ",")
	if len(parts) < 2 {
		return ecmsketch.Event{}, errors.New("want key,tick[,count]")
	}
	ev := ecmsketch.Event{Key: ecmsketch.KeyString(strings.TrimSpace(parts[0])), N: 1}
	var err error
	if ev.Tick, err = strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64); err != nil {
		return ev, fmt.Errorf("bad tick: %v", err)
	}
	if len(parts) >= 3 {
		if ev.N, err = strconv.ParseUint(strings.TrimSpace(parts[2]), 10, 64); err != nil {
			return ev, fmt.Errorf("bad count: %v", err)
		}
	}
	return ev, nil
}

// WireEvent is the JSON form of one batched arrival on POST /v1/events.
// Exactly one of Key (string, digested server-side) or IKey (decimal
// uint64, kept as a string so >2^53 digests survive non-Go JSON stacks)
// identifies the item.
type WireEvent struct {
	Key  string `json:"key,omitempty"`
	IKey string `json:"ikey,omitempty"`
	T    uint64 `json:"t"`
	N    uint64 `json:"n,omitempty"`
}

// handleEvents ingests a batch of arrivals: POST /v1/events, with a body of
// at most MaxIngestBody bytes (413 beyond) in one of two forms.
//
// With Content-Type: application/x-ecm-events the body is a binary event
// run, the encoding WAL batch records use (core.AppendEvents): a uvarint
// event count, then per event the uvarint key (a KeyString digest or any
// uint64), tick (≥ 1) and multiplicity (0 means 1). ecmclient sends this
// form. The whole body is validated before anything is applied —
// truncation, trailing bytes, a zero tick or a count the body cannot hold
// answer 400 with accepted 0 — so a binary batch lands all or nothing.
//
// Any other body is a JSON array,
// [{"key":"/home","t":12345,"n":2}, {"ikey":"17446744073709551615","t":12346}],
// decoded element by element; an error mid-stream returns 400 with the
// count already accepted (earlier chunks are not rolled back).
//
// Both forms, like /v1/batch, apply through one ingestSink in chunks of
// ingestFlushEvery events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	decode := (*ingestSink).addJSON
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == wire.EventsContentType {
		decode = (*ingestSink).addBinary
	}
	s.ingestBody(w, r, decode)
}

// addBinary buffers a binary event run and queues it all or nothing: one
// validating pass over a copy of the reader, then one queueing pass.
func (k *ingestSink) addBinary(body io.Reader) error {
	if _, err := k.body.ReadFrom(body); err != nil {
		return err
	}
	rd, err := core.NewEventReader(k.body.Bytes())
	if err != nil {
		return err
	}
	for check, i := rd, 0; ; i++ {
		ev, ok := check.Next()
		if !ok {
			if err := check.Err(); err != nil {
				return err
			}
			break
		}
		if ev.Tick == 0 {
			return fmt.Errorf("event %d: zero tick", i)
		}
	}
	for ev, ok := rd.Next(); ok; ev, ok = rd.Next() {
		k.add(ev)
	}
	return nil
}

func (k *ingestSink) addJSON(body io.Reader) error {
	dec := json.NewDecoder(body)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return errors.Join(errors.New("bad events body: want a JSON array"), err)
	}
	for i := 0; dec.More(); i++ {
		var ev WireEvent
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		key, err := wire.KeyOf(ev.Key, ev.IKey)
		if err != nil {
			return fmt.Errorf("event %d: %v", i, err)
		}
		if ev.T == 0 {
			return fmt.Errorf("event %d: missing or zero t", i)
		}
		k.add(ecmsketch.Event{Key: key, Tick: ev.T, N: ev.N})
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
		return errors.Join(errors.New("bad events body: unterminated array"), err)
	}
	return nil
}

// MaxQueryKeys re-exports the per-request key cap of POST /v1/query (see
// wire.MaxQueryKeys): a batch of point queries is answered in full, so the
// request size itself is capped and oversized batches are rejected with 400
// before their tail is even parsed.
const MaxQueryKeys = wire.MaxQueryKeys

// WireQueryKey identifies one queried item on POST /v1/query, mirroring
// WireEvent: exactly one of Key (string, digested server-side) or IKey
// (decimal uint64, kept as a string so >2^53 digests survive non-Go JSON
// stacks).
type WireQueryKey struct {
	Key  string `json:"key,omitempty"`
	IKey string `json:"ikey,omitempty"`
}

// WireQueryResult is the JSON reply of POST /v1/query: one estimate per
// requested key in request order, the aggregates if requested, and the
// engine clock the consistent cut was taken at. Now and Range are 64-bit
// ticks; requests carrying ?strings=1 receive them as decimal strings
// (see wantStrings) via wireQueryResultStrings instead.
type WireQueryResult struct {
	Estimates []float64 `json:"estimates"`
	Total     *float64  `json:"total,omitempty"`
	SelfJoin  *float64  `json:"selfJoin,omitempty"`
	Now       uint64    `json:"now"`
	Range     uint64    `json:"range"`
}

// wireQueryResultStrings is WireQueryResult with the 64-bit tick fields
// encoded as decimal strings, the ?strings=1 reply shape.
type wireQueryResultStrings struct {
	Estimates []float64 `json:"estimates"`
	Total     *float64  `json:"total,omitempty"`
	SelfJoin  *float64  `json:"selfJoin,omitempty"`
	Now       string    `json:"now"`
	Range     string    `json:"range"`
}

// ParseQueryBody decodes a POST /v1/query request body into a QueryBatch
// under the strict wire semantics of the versioned API; it delegates to the
// shared codec (wire.ParseQueryBody), which every tier serving the route —
// this site server, the ecmcoord coordinator surface — validates through.
func ParseQueryBody(body io.Reader) (ecmsketch.QueryBatch, error) {
	return wire.ParseQueryBody(body)
}

// handleQuery answers a batched multi-key query from one consistent cut of
// the engine's merged view: POST /v1/query with body
//
//	{"keys":[{"key":"/home"},{"ikey":"17446744073709551615"}],
//	 "range":60000,"total":true,"selfJoin":true}
//
// An omitted or zero range means the whole window; see ParseQueryBody for
// the strict body semantics.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := ParseQueryBody(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.answerQuery(w, r, q)
}

// handleQueryGet answers the GET form of /v1/query: repeated key=/ikey=
// parameters plus range=, total=1, selfJoin=1 — the curl-friendly spelling
// of the same batch the POST body carries. Both forms honor ?direct=1.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	q, err := wire.ParseQueryParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.answerQuery(w, r, q)
}

// answerQuery evaluates a parsed QueryBatch and writes the /v1 reply.
// ?direct=1 routes through the zero-merge path: each key answered from its
// owning stripe, no merged view built or consulted (aggregates rejected
// with 400, since they need the view) — an inconsistent cut traded for
// zero merge error and zero rebuild cost.
func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, q ecmsketch.QueryBatch) {
	var res ecmsketch.QueryResult
	var err error
	if wire.WantDirect(r) {
		res, err = s.engine.QueryDirect(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	} else if res, err = s.engine.QueryBatch(q); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	out := WireQueryResult{Estimates: res.Estimates, Now: res.Now, Range: res.Range}
	if out.Estimates == nil {
		out.Estimates = []float64{} // aggregate-only queries still reply with an array
	}
	if q.Total {
		out.Total = &res.Total
	}
	if q.SelfJoin {
		out.SelfJoin = &res.SelfJoin
	}
	if wantStrings(r) {
		respond(w, wireQueryResultStrings{
			Estimates: out.Estimates,
			Total:     out.Total,
			SelfJoin:  out.SelfJoin,
			Now:       strconv.FormatUint(out.Now, 10),
			Range:     strconv.FormatUint(out.Range, 10),
		})
		return
	}
	respond(w, out)
}

// handleEstimate answers a point query: GET /v1/estimate?key=/home&range=60000.
// Key-hash routing answers from the single shard owning the key.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	key, err := parseKey(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rng, err := parseU64(r, "range", s.cfg.WindowLength)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	respond(w, map[string]any{"estimate": s.engine.Estimate(key, rng), "range": u64field(wantStrings(r), rng)})
}

// handleInterval answers a point query over an arbitrary tick interval:
// GET /v1/interval?key=/home&from=1000&to=2000 estimates the key's
// frequency within (from, to]. Interval queries carry twice the window
// error of suffix queries.
func (s *Server) handleInterval(w http.ResponseWriter, r *http.Request) {
	key, err := parseKey(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	from, err := parseU64(r, "from", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	to, err := parseU64(r, "to", 0)
	if err != nil || to == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing or bad to parameter"))
		return
	}
	est := s.engine.EstimateInterval(key, from, to)
	asStrings := wantStrings(r)
	respond(w, map[string]any{"estimate": est, "from": u64field(asStrings, from), "to": u64field(asStrings, to)})
}

// handleSelfJoin answers GET /v1/selfjoin?range=60000 from the merged view.
func (s *Server) handleSelfJoin(w http.ResponseWriter, r *http.Request) {
	rng, err := parseU64(r, "range", s.cfg.WindowLength)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	respond(w, map[string]any{"selfJoin": s.engine.SelfJoin(rng), "range": u64field(wantStrings(r), rng)})
}

// handleTotal answers GET /v1/total?range=60000 with the estimated ‖a_r‖₁.
func (s *Server) handleTotal(w http.ResponseWriter, r *http.Request) {
	rng, err := parseU64(r, "range", s.cfg.WindowLength)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	respond(w, map[string]any{"total": s.engine.EstimateTotal(rng), "range": u64field(wantStrings(r), rng)})
}

// wantStrings and u64field are the shared ?strings=1 convention (see
// wire.WantStrings): string-encoded 64-bit tick/count reply fields for
// JSON consumers above 2^53. Every scalar 64-bit reply field of the /v1
// surface — now, count, range, from, to, window, viewRebuilds — honors it.
var (
	wantStrings = wire.WantStrings
	u64field    = wire.U64Field
)

// handleStats reports engine dimensions, clock and footprint. With
// ?strings=1, the 64-bit tick/count fields (now, count, window,
// viewRebuilds) are encoded as decimal strings.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	asStrings := wantStrings(r)
	subs, queries, watchers, dropped := s.standing.Stats()
	respond(w, map[string]any{
		"standing": map[string]any{
			"subscriptions": subs,
			"queries":       queries,
			"watchers":      watchers,
			"dropped":       u64field(asStrings, dropped),
		},
		"width":        s.engine.Width(),
		"depth":        s.engine.Depth(),
		"shards":       s.engine.Shards(),
		"now":          u64field(asStrings, s.engine.Now()),
		"count":        u64field(asStrings, s.engine.Count()),
		"memoryBytes":  s.engine.MemoryBytes(),
		"viewRebuilds": u64field(asStrings, s.engine.ViewRebuilds()),
		"rebuild":      rebuildStatsField(asStrings, s.engine),
		"epsilon":      s.cfg.Epsilon,
		"delta":        s.cfg.Delta,
		"window":       u64field(asStrings, s.cfg.WindowLength),
		"algorithm":    s.cfg.Algorithm,
		"apiVersion":   "v1",
		"durability":   durabilityStatsField(asStrings, s.engine),
	})
}

// durabilityStatsField renders the durability block of /v1/stats: whether
// the engine persists, the epoch it serves deltas under, the last
// checkpoint (engine tick and wall clock), the WAL volume accumulated since
// it, and the latency of the most recent fsync. Disabled engines report
// {"enabled": false} only. 64-bit counters honor ?strings=1.
func durabilityStatsField(asStrings bool, engine *ecmsketch.Sharded) map[string]any {
	st := engine.DurabilityStats()
	if !st.Enabled {
		return map[string]any{"enabled": false}
	}
	return map[string]any{
		"enabled":            true,
		"epoch":              u64field(asStrings, st.Epoch),
		"generation":         u64field(asStrings, st.Generation),
		"lastSnapshotTick":   u64field(asStrings, st.LastSnapshotTick),
		"lastSnapshotUnixMs": st.LastSnapshotUnixMs,
		"walRecords":         u64field(asStrings, st.WALRecords),
		"walBytes":           u64field(asStrings, st.WALBytes),
		"lastFsyncNs":        st.LastFsyncNs,
		"recovered":          st.Recovered,
		"replayedRecords":    u64field(asStrings, st.ReplayedRecords),
		"errors":             u64field(asStrings, st.Errors),
	}
}

// rebuildStatsField renders the merged-view rebuild timing block of
// /v1/stats: the wall time of the most recent rebuild's stripe clone+merge
// and the worker-pool size the per-stripe refresh fanned across (1 =
// sequential) — together, the effective parallelism of the merge path.
// merge_ns is a 64-bit field and honors ?strings=1 like every other.
func rebuildStatsField(asStrings bool, engine *ecmsketch.Sharded) map[string]any {
	mergeNs, workers := engine.RebuildStats()
	return map[string]any{
		"merge_ns": u64field(asStrings, uint64(mergeNs)),
		"workers":  workers,
	}
}

// handleSketch ships the serialized merged view, letting a coordinator pull
// and merge several sites' summaries. Honors Accept-Encoding: gzip.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	enc := s.engine.Marshal()
	if enc == nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("merging shards failed"))
		return
	}
	wire.WriteSnapshot(w, r, enc, wire.SnapshotMeta{Now: s.engine.Now(), Count: s.engine.Count()})
}

// handleSnapshot is the coordinator pull route, in two modes:
//
// Without ?since=, GET /v1/snapshot ships the engine's frozen merged-view
// bytes — the same payload as /v1/sketch, under the name the transport
// layer (coord.HTTPSite, ecmclient.Snapshot) speaks — plus X-Ecm-Now and
// X-Ecm-Count headers so pullers can gauge staleness and stream volume
// without decoding the body. Headers and payload come from one Snapshot of
// the merged view (not separate engine reads), so they describe exactly
// the bytes shipped even under concurrent ingest. Pre-delta clients keep
// working unchanged.
//
// With ?since=<cursor>, the reply follows the delta protocol: an
// incremental payload holding only the stripes/cells whose version moved
// since the cursor (X-Ecm-Delta: delta), or a full multipart baseline when
// the cursor is absent-valued ("0"), unparsable, or unrecognized — a
// restarted or reconfigured engine — re-baselining the puller
// (X-Ecm-Delta: full). X-Ecm-Cursor carries the cursor the payload brings
// the puller to; delta pulls never build the merged view, so a steady-state
// pull loop costs the server a few stripe clones instead of a P-way merge.
//
// Both modes honor Accept-Encoding: gzip.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if sinceRaw, ok := r.URL.Query()["since"]; ok {
		var since ecmsketch.Cursor
		if len(sinceRaw) > 0 {
			// An unparsable cursor is an unrecognized one: reply full.
			since, _ = ecmsketch.ParseCursor(sinceRaw[0])
		}
		payload, cur, full, err := s.engine.DeltaSnapshot(since)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		kind := wire.KindDelta
		if full {
			kind = wire.KindFull
		}
		wire.WriteSnapshot(w, r, payload, wire.SnapshotMeta{
			Now: s.engine.Now(), Count: s.engine.Count(),
			Cursor: cur.String(), Kind: kind,
		})
		return
	}
	sk, err := s.engine.Snapshot()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("merging shards failed: %w", err))
		return
	}
	wire.WriteSnapshot(w, r, sk.Marshal(), wire.SnapshotMeta{Now: sk.Now(), Count: sk.Count()})
}

// handleAdvance moves the window clock forward without an arrival:
// POST /v1/advance?t=99999.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	t, err := parseU64(r, "t", 0)
	if err != nil || t == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing or bad t parameter"))
		return
	}
	s.engine.Advance(t)
	respond(w, map[string]any{"ok": true, "now": u64field(wantStrings(r), t)})
}

// handleTopK reports the current hottest keys: GET /v1/topk?range=60000.
// Available only when the server was configured with TopK > 0.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	rng, err := parseU64(r, "range", s.cfg.WindowLength)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.topkMu.Lock()
	items := s.topk.Top(rng)
	s.topkMu.Unlock()
	// Keys are rendered as decimal strings: uint64 digests exceed the
	// float64-exact integer range of JSON consumers.
	type entry struct {
		Key      string  `json:"key"`
		Estimate float64 `json:"estimate"`
	}
	out := make([]entry, len(items))
	for i, it := range items {
		out[i] = entry{Key: strconv.FormatUint(it.Key, 10), Estimate: it.Estimate}
	}
	respond(w, map[string]any{"top": out, "range": u64field(wantStrings(r), rng)})
}
