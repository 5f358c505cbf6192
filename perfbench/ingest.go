package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ecmsketch"
	"ecmsketch/internal/workload"
)

// The ingest and query workloads share one server set-up: a durable
// ecmserver preloaded with one full window of a WorldCup98Like stream.
const (
	windowEvents  = 250_000 // stream events per window length of ticks
	streamWindows = 1024    // stream length in windows: no run exhausts it, and its diurnal period (a quarter of it) barely moves within a run
	setupRepeats  = 9       // set-ups per run; setup_s is their median
	ingestBatch   = 1024
	preloadBatch  = 16384 // set-up batches: few WAL fsyncs, so set-up time is not all fsync
)

// loaded is a server holding one full window, with the stream positioned
// at its continuation and the oracle in step.
type loaded struct {
	site  *site
	st    *stream
	audit *auditor
	twin  *ecmsketch.Sharded // memory-only replay engine (traced runs)

	closed bool
}

// setupServer builds the server and preloads the window setupRepeats times,
// keeping the last; it returns that server and the median set-up time.
func setupServer(cfg runConfig, tr *tracer, tag string) (*loaded, float64, error) {
	var times dist
	var keep *loaded
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		start := time.Now()
		var t *tracer
		if last {
			t = tr
		}
		l, err := preloadServer(cfg.seed, t, tag)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if last {
			keep = l
		} else {
			l.site.close()
		}
	}
	return keep, times.median(), nil
}

func preloadServer(seed int64, tr *tracer, tag string) (*loaded, error) {
	var gens [2]*workload.Generator // the stream, and its trailing copy for the oracle
	for i := range gens {
		g, err := workload.WorldCup98Like(windowEvents*streamWindows, windowTicks*streamWindows, seed)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	s, err := newSite(dataDir(tag), tr)
	if err != nil {
		return nil, err
	}
	l := &loaded{site: s, st: &stream{g: gens[0]}, audit: newAuditor(gens[0], gens[1])}
	if tr != nil {
		twinCfg := ecmsketch.ShardedConfig{Params: s.srv.Engine().Params(), Shards: stripes, MergeTTL: mergeTTL}
		if l.twin, err = ecmsketch.NewSharded(twinCfg); err != nil {
			s.close()
			return nil, err
		}
	}
	engine := s.srv.Engine()
	buf := make([]ecmsketch.Event, 0, preloadBatch)
	for {
		buf = l.st.take(buf[:0], preloadBatch, windowTicks)
		if len(buf) == 0 {
			break
		}
		engine.AddBatch(buf)
		l.audit.add(buf)
		if l.twin != nil {
			l.twin.AddBatch(buf)
		}
	}
	return l, nil
}

func (l *loaded) close() {
	if l.closed {
		return
	}
	l.closed = true
	l.site.close()
	if l.twin != nil {
		l.twin.Close()
	}
}

// send posts one batch and returns the request's duration. When traced it
// then replays the batch on the twin engine, outside that duration, for the
// engine-only baseline.
func (l *loaded) send(r *role, tr *tracer, batch []ecmsketch.Event) (time.Duration, error) {
	if tr == nil {
		t0 := time.Now()
		err := r.cl.AddEvents(batch)
		return time.Since(t0), err
	}
	id := tr.newID()
	r.cur.set(id, id)
	start := tr.now()
	err := r.cl.AddEvents(batch)
	end := tr.now()
	tr.add(Span{ID: id, Req: id, Name: spanAddEvents, Start: start, End: end, Bytes: int64(len(batch)), Failed: err != nil})
	t := tr.now()
	l.twin.AddBatch(batch)
	tr.add(Span{Req: id, Name: spanTwin, Start: t, End: tr.now(), Bytes: int64(len(batch))})
	return time.Duration(end - start), err
}

// auditServer checks the server's fresh per-stripe estimates of the
// sampled keys against the oracle; it returns the number of keys beyond
// the ε bound, or an error when the query itself failed.
func (l *loaded) auditServer(r *role) (int, error) {
	res, err := r.cl.QueryDirect(ecmsketch.QueryBatch{Keys: l.audit.keys})
	if err != nil {
		return 0, err
	}
	if len(res.Estimates) != len(l.audit.keys) {
		return 0, fmt.Errorf("audit: %d estimates for %d keys", len(res.Estimates), len(l.audit.keys))
	}
	return l.audit.check(res.Estimates), nil
}

// sentBatch is the tick span and send time of one timed batch, for
// attributing a notification to the batch that raised the clock to its Now.
type sentBatch struct {
	hi   ecmsketch.Tick
	sent time.Time
}

type batchLog struct {
	mu sync.Mutex
	b  []sentBatch
}

func (bl *batchLog) add(hi ecmsketch.Tick, at time.Time) {
	bl.mu.Lock()
	bl.b = append(bl.b, sentBatch{hi, at})
	bl.mu.Unlock()
}

// find returns the send time of the first batch whose highest tick is at
// or past now.
func (bl *batchLog) find(now ecmsketch.Tick) (time.Time, bool) {
	bl.mu.Lock()
	defer bl.mu.Unlock()
	i := sort.Search(len(bl.b), func(i int) bool { return bl.b[i].hi >= now })
	if i == len(bl.b) {
		return time.Time{}, false
	}
	return bl.b[i].sent, true
}

// thresholdQueries subscribes threshold crossings on mid-popularity sampled
// keys over a short window suffix, at a ladder of levels from a quarter to
// four times each key's current estimate: wherever the stream's diurnal
// drift carries an estimate, some level sits near it and noise crosses it
// repeatedly, so the firing rate holds steady over a long run.
func thresholdQueries(r *role, a *auditor) ([]ecmsketch.StandingQuery, error) {
	const (
		maxKeys = 16
		rng     = windowTicks / 32
	)
	var mid []uint64
	for _, k := range a.keys { // keys are Zipf ranks: 0 is the most popular
		if k >= 32 && k < 4096 {
			mid = append(mid, k)
		}
	}
	keys := make([]uint64, maxKeys)
	for i := range keys {
		keys[i] = mid[i*len(mid)/maxKeys]
	}
	res, err := r.cl.QueryDirect(ecmsketch.QueryBatch{Keys: keys, Range: rng})
	if err != nil {
		return nil, err
	}
	var qs []ecmsketch.StandingQuery
	for i, k := range keys {
		for j := -8; j <= 8; j++ {
			if v := res.Estimates[i] * math.Pow(1.2, float64(j)); v > 0 {
				qs = append(qs, ecmsketch.StandingQuery{Kind: ecmsketch.StandingThreshold, Key: k, Range: rng, Value: v})
			}
		}
	}
	return qs, nil
}

// runIngest: one closed-loop writer connection posts 1024-event batches
// while one SSE connection holds threshold subscriptions.
func runIngest(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	l, setup, err := setupServer(cfg, tr, "ingest")
	if err != nil {
		return nil, err
	}
	defer l.close()
	o.e2e["setup_s"] = setup
	writer := newRole(l.site.http.URL, tr)
	watcher := newRole(l.site.http.URL, nil)

	qs, err := thresholdQueries(writer, l.audit)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := watcher.cl.Subscribe(ctx, qs, 4096)
	if err != nil {
		return nil, err
	}
	flushDisk()
	var timedFrom int64
	if tr != nil {
		timedFrom = tr.now()
	}
	start := time.Now()
	var (
		sent             batchLog
		lag, delivery    dist
		fired            int64
		consumerFinished = make(chan struct{})
	)
	go func() {
		defer close(consumerFinished)
		for n := range sub.C {
			at := time.Now()
			if n.Kind == ecmsketch.StandingDropped {
				continue // counted at the server, below
			}
			fired++
			if tr != nil {
				delivery = append(delivery, float64(at.UnixNano()-n.At)/ms)
			}
			if t, ok := sent.find(n.Now); ok {
				lag = append(lag, float64(at.Sub(t))/ms)
			}
		}
	}()

	var (
		lat    dist
		events int64
		batch  = make([]ecmsketch.Event, 0, ingestBatch)
	)
	// The writer's rate is events acknowledged per second spent waiting on
	// requests (oracle upkeep excluded), as a median over whole seconds.
	rates := newBuckets(start)
	for time.Since(start) < cfg.seconds {
		batch = l.st.take(batch[:0], ingestBatch, ^ecmsketch.Tick(0))
		if len(batch) == 0 {
			return nil, errNoEvents
		}
		sent.add(batch[len(batch)-1].Tick, time.Now())
		d, err := l.send(writer, tr, batch)
		o.attempted++
		if err != nil {
			o.failed++
			fmt.Println("ingest: AddEvents failed:", err)
			continue
		}
		events += int64(len(batch))
		lat = append(lat, float64(d)/ms)
		rates.add(time.Now(), float64(len(batch)), d.Seconds())
		l.audit.add(batch)
	}
	end := time.Now()
	var timedTo int64
	if tr != nil {
		timedTo = tr.now()
	}
	o.e2e["heap_mb"] = heapMB()
	// Let notifications for the last batches arrive, then end the stream.
	time.Sleep(200 * time.Millisecond)
	if err := sub.Close(); err != nil {
		fmt.Println("ingest: unsubscribe failed:", err)
		o.failed++
	}
	<-consumerFinished
	// Drops are counted where they happen, on full watcher queues; the
	// stream's dropped markers report the same gaps again.
	_, _, _, srvDropped := l.site.srv.Standing().Stats()
	dropped := int64(srvDropped)
	o.attempted += fired + dropped
	o.failed += dropped

	bad, err := l.auditServer(writer)
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Println("ingest: audit query failed:", err)
	}
	o.checkFailures += int64(bad)

	rate := rates.rate(end)

	o.e2e["err_ratio_max"] = l.audit.worst
	o.e2e["ingest_events_per_s"] = rate
	o.e2e["read_p50_ms"] = lag.median()
	say("ingest: %d events in %d batches of %d, %d threshold queries, audited %d keys (%d beyond ε bound)",
		events, len(lat), ingestBatch, len(qs), len(l.audit.keys), bad)
	say("  %-22s %.4g s (median of %d)", "setup_s", setup, setupRepeats)
	say("  %-22s %.4g MB", "heap_mb", o.e2e["heap_mb"])
	say("  %-22s %.4g", "err_ratio_max", l.audit.worst)
	say("  %-22s %.6g 1/s", "ingest_events_per_s", rate)
	printTiming("ingest", lat)
	printTiming("notify_lag", lag)
	say("  %-22s %.4g ms (= notify_lag_p50_ms)", "read_p50_ms", o.e2e["read_p50_ms"])
	say("  notifications          %d fired, %d dropped", fired, dropped)

	if tr != nil {
		spanLayers(tr.within(timedFrom, timedTo), spanAddEvents, spanAddEvents, rate, o.layer)
		l.close()
		checkpointLayers(tr.within(timedFrom, tr.now()), o.layer)
		o.layer["standing.delivery_ms"] = delivery.median()
		o.layer["standing.fired"] = float64(fired)
		o.layer["standing.dropped"] = float64(dropped)
		printLayers("ingest", o.layer)
	}
	return o, nil
}
