package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/workload"
)

// Sketch and server settings shared by every workload: the ecmserve
// defaults (EH, ε=0.02, δ=0.01, one-hour window of millisecond ticks,
// 250 ms MergeTTL, minute checkpoints, fsync per WAL append), with the
// engine pinned to two lock stripes.
const (
	epsilon     = 0.02
	delta       = 0.01
	windowTicks = 3_600_000
	stripes     = 2
	mergeTTL    = 250 * time.Millisecond
	hashSeed    = 1 // ecmserve -seed default
)

func serverConfig() ecmserver.Config {
	return ecmserver.Config{
		Epsilon:          epsilon,
		Delta:            delta,
		WindowLength:     windowTicks,
		Algorithm:        "eh",
		Seed:             hashSeed,
		Shards:           stripes,
		MergeTTL:         mergeTTL,
		SnapshotInterval: time.Minute,
		WALSyncInterval:  0,
	}
}

// site is one ecmserver behind its own loopback listener.
type site struct {
	srv  *ecmserver.Server
	http *httptest.Server
	th   *tracingHandler // nil when untraced
	dir  string
}

// newSite starts an ecmserver; a non-empty dir makes it durable through a
// FileStore there. With a tracer, the handler, the store and the standing
// notifier are wrapped.
func newSite(dir string, tr *tracer) (*site, error) {
	cfg := serverConfig()
	s := &site{dir: dir}
	if tr != nil {
		s.th = &tracingHandler{tr: tr}
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		store, err := ecmsketch.NewFileStore(dir)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			store = &tracingStore{DurableStore: store, tr: tr, h: s.th}
		}
		cfg.DurableStore = store
	} else {
		cfg.SnapshotInterval = 0
	}
	srv, err := ecmserver.New(cfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	var h http.Handler = srv
	if tr != nil {
		s.th.inner = srv
		h = s.th
		srv.Engine().SetNotifier(&tracingNotifier{Notifier: srv.Standing(), tr: tr, h: s.th})
	}
	s.http = httptest.NewServer(h)
	return s, nil
}

func (s *site) close() {
	s.http.Close()
	if err := s.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing server:", err)
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// role is one client connection of the load generator.
type role struct {
	cl  *ecmclient.Client
	cur clientSpan
}

func newRole(base string, tr *tracer) *role {
	r := &role{}
	r.cl = ecmclient.New(base, ecmclient.WithHTTPClient(&http.Client{Transport: newTransport(tr, &r.cur)}))
	return r
}

// stream hands out a workload generator's events in order, with one event
// of lookahead so a caller can stop at a tick boundary.
type stream struct {
	g       *workload.Generator
	pending workload.Event
	has     bool
}

func (s *stream) peek() (workload.Event, bool) {
	if !s.has {
		s.pending, s.has = s.g.Next()
	}
	return s.pending, s.has
}

// take appends up to n events with tick <= maxTick to dst.
func (s *stream) take(dst []ecmsketch.Event, n int, maxTick ecmsketch.Tick) []ecmsketch.Event {
	for ; n > 0; n-- {
		ev, ok := s.peek()
		if !ok || ev.Time > maxTick {
			break
		}
		s.has = false
		dst = append(dst, ecmsketch.Event{Key: ev.Key, Tick: ev.Time, N: 1})
	}
	return dst
}

// until appends every event with tick <= t, split by site into dst.
func (s *stream) until(t ecmsketch.Tick, dst [][]ecmsketch.Event) {
	for {
		ev, ok := s.peek()
		if !ok || ev.Time > t {
			return
		}
		s.has = false
		i := ev.Site % len(dst)
		dst[i] = append(dst[i], ecmsketch.Event{Key: ev.Key, Tick: ev.Time, N: 1})
	}
}

// auditor is the exact reference: workload.Oracle over a deterministic
// hash-sampled key set, plus the exact window total the ε bound scales by.
// The total is the count of events added minus the count a second copy of
// the stream, trailing one window behind, has passed: exact, in constant
// memory, so the benchmark's own footprint stays out of heap_mb.
type auditor struct {
	keys           []uint64
	orc            *workload.Oracle
	trail          *stream
	added, expired uint64
	now            ecmsketch.Tick // newest tick added
	worst          float64        // max |estimate − exact| / (ε · exact window total)
}

// sampled is a fixed hash test, independent of the seed and the sketch's
// own hashing, selecting about one key in 16.
func sampled(key uint64) bool {
	x := key + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x^(x>>31))%16 == 0
}

// newAuditor audits keys of the stream g generates; trail must be a second
// generator of the same stream.
func newAuditor(g, trail *workload.Generator) *auditor {
	a := &auditor{orc: workload.NewOracle(windowTicks), trail: &stream{g: trail}}
	for k := uint64(0); k < uint64(g.Config().KeyDomain); k++ {
		if sampled(k) {
			a.keys = append(a.keys, k)
		}
	}
	return a
}

func (a *auditor) add(events []ecmsketch.Event) {
	for _, ev := range events {
		a.added += ev.N
		a.now = max(a.now, ev.Tick)
		if sampled(ev.Key) {
			a.orc.Add(ev.Key, ev.Tick)
		}
	}
}

// check compares estimates of a.keys (in order) against the oracle and
// returns how many exceed the ε·‖a‖₁ bound.
func (a *auditor) check(est []float64) int {
	now := a.now
	a.orc.Advance(now)
	for {
		ev, ok := a.trail.peek()
		if !ok || now < windowTicks || ev.Time > now-windowTicks {
			break
		}
		a.trail.has = false
		a.expired++
	}
	bound := epsilon * float64(a.added-a.expired)
	bad := 0
	for i, k := range a.keys {
		r := math.Abs(est[i]-float64(a.orc.Freq(k, windowTicks))) / bound
		if r > a.worst {
			a.worst = r
		}
		if !(r <= 1) {
			bad++
		}
	}
	return bad
}

// heapMB forces a collection and reports HeapInuse in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// flushDisk writes back every dirty page on the machine, so that fsyncs in
// the timed phase do not pay for earlier writes (the build, set-up files).
func flushDisk() { syscall.Sync() }

// dataDir is a fresh scratch directory for one server's durable state,
// inside the checkout's build directory.
func dataDir(tag string) string {
	return filepath.Join(buildDir(), "data", fmt.Sprintf("%s-%d-%d", tag, os.Getpid(), time.Now().UnixNano()))
}
