package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ecmsketch"
)

const (
	queryKeys   = 64 // keys per reader call
	writerBatch = 64 // events per open-loop writer request
	writerRate  = 50 // open-loop writer requests per second
)

// runQuery: one closed-loop reader connection alternates consistent-cut
// QueryBatch calls (64 keys plus total and self-join) with QueryDirect calls
// on 64 keys, while one open-loop writer connection posts 64-event batches
// at a fixed rate, each timed from its due time.
func runQuery(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	l, setup, err := setupServer(cfg, tr, "query")
	if err != nil {
		return nil, err
	}
	defer l.close()
	o.e2e["setup_s"] = setup
	reader := newRole(l.site.http.URL, tr)
	writer := newRole(l.site.http.URL, tr)
	engine := l.site.srv.Engine()
	preloadNow := engine.Now()

	flushDisk()
	var timedFrom int64
	if tr != nil {
		timedFrom = tr.now()
	}
	start := time.Now()
	end := start.Add(cfg.seconds)

	var (
		wg                          sync.WaitGroup
		wLat, late                  dist
		wAttempted, wFailed, events int64
		wErr                        error
		wDone                       time.Time // completion of the last writer request
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]ecmsketch.Event, 0, writerBatch)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * time.Second / writerRate)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			late = append(late, float64(time.Since(due))/ms)
			batch = l.st.take(batch[:0], writerBatch, ^ecmsketch.Tick(0))
			if len(batch) == 0 {
				wErr = errNoEvents
				return
			}
			sendAt := time.Now()
			d, err := l.send(writer, tr, batch)
			wAttempted++
			if err != nil {
				wFailed++
				fmt.Println("query: writer AddEvents failed:", err)
				continue
			}
			wDone = sendAt.Add(d)
			wLat = append(wLat, float64(wDone.Sub(due))/ms)
			events += int64(len(batch))
			l.audit.add(batch)
		}
	}()

	var (
		qLat, pLat           dist
		rebuildMs            dist
		rebuilds, cutQueries int64
		keys                 = make([]uint64, queryKeys)
		cuts                 = newBuckets(start) // consistent-cut replies per second
	)
	for i := 0; time.Now().Before(end); i++ {
		for j := range keys {
			keys[j] = l.audit.keys[(i*queryKeys/2+j)%len(l.audit.keys)]
		}
		direct := i%2 == 1
		q := ecmsketch.QueryBatch{Keys: keys, Total: !direct, SelfJoin: !direct}
		var before uint64
		if tr != nil {
			before = engine.ViewRebuilds()
		}
		t0 := time.Now()
		res, err := readerCall(reader, tr, q, direct)
		d := float64(time.Since(t0)) / ms
		o.attempted++
		if err == nil {
			err = saneResult(res, q, preloadNow)
		}
		if err != nil {
			o.failed++
			fmt.Println("query: reader call failed:", err)
			continue
		}
		if direct {
			pLat = append(pLat, d)
			continue
		}
		qLat = append(qLat, d)
		cuts.add(time.Now(), 1, 0)
		cutQueries++
		if tr != nil {
			if n := engine.ViewRebuilds() - before; n > 0 {
				rebuilds += int64(n)
				ns, _ := engine.RebuildStats()
				rebuildMs = append(rebuildMs, float64(ns)/ms)
			}
		}
	}
	wg.Wait()
	if wErr != nil {
		return nil, wErr
	}
	o.attempted += wAttempted
	o.failed += wFailed
	var timedTo int64
	if tr != nil {
		timedTo = tr.now()
	}
	o.e2e["heap_mb"] = heapMB()

	// Audit both read paths once the writer is quiet: per-stripe direct
	// reads, then a consistent cut taken after the cached view expired.
	bad, err := l.auditServer(writer)
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Println("query: direct audit failed:", err)
	}
	o.checkFailures += int64(bad)
	time.Sleep(mergeTTL + 10*time.Millisecond)
	res, err := writer.cl.QueryBatch(ecmsketch.QueryBatch{Keys: l.audit.keys})
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Println("query: consistent-cut audit failed:", err)
	} else {
		badCut := l.audit.check(res.Estimates)
		o.checkFailures += int64(badCut)
		bad += badCut
	}

	// The writer's achieved rate: below the offered rate when it fell behind.
	rate := float64(events) / wDone.Sub(start).Seconds()
	o.e2e["err_ratio_max"] = l.audit.worst
	o.e2e["ingest_events_per_s"] = rate
	o.e2e["read_p50_ms"] = qLat.median()
	lateTail, lateLabel := late.tail()
	say("query: %d consistent-cut and %d direct reads of %d keys, writer %d×%d events at %d/s, audited %d keys twice (%d beyond ε bound)",
		len(qLat), len(pLat), queryKeys, len(wLat), writerBatch, writerRate, len(l.audit.keys), bad)
	say("  %-22s %.4g s (median of %d)", "setup_s", setup, setupRepeats)
	say("  %-22s %.4g MB", "heap_mb", o.e2e["heap_mb"])
	say("  %-22s %.4g", "err_ratio_max", l.audit.worst)
	say("  %-22s %.6g 1/s (median over whole seconds)", "queries_per_s", cuts.perSecond(end))
	printTiming("query", qLat)
	printTiming("point", pLat)
	say("  %-22s %.4g ms (= query_p50_ms)", "read_p50_ms", o.e2e["read_p50_ms"])
	say("  %-22s %.6g 1/s (writer, %d/s offered)", "ingest_events_per_s", rate, writerRate*writerBatch)
	printTiming("ingest", wLat) // writer, from each request's due time
	say("  generator lateness     %s %.4g ms", lateLabel, lateTail)

	if tr != nil {
		// The writer runs at a fixed rate here, so the engine-share ratio
		// (derived.ingest_over_engine) is reported by ingest only.
		spanLayers(tr.within(timedFrom, timedTo), spanQueryBatch, spanQueryDirect, 0, o.layer)
		l.close()
		checkpointLayers(tr.within(timedFrom, tr.now()), o.layer)
		if cutQueries > 0 {
			o.layer["ecmsketch.rebuilds_per_query"] = float64(rebuilds) / float64(cutQueries)
		}
		if len(rebuildMs) > 0 {
			o.layer["ecmsketch.rebuild_ms"] = rebuildMs.median()
		}
		o.layer["loadgen.late_ms"] = lateTail
		printLayers("query", o.layer)
	}
	return o, nil
}

// readerCall issues one traced or untraced reader request.
func readerCall(r *role, tr *tracer, q ecmsketch.QueryBatch, direct bool) (ecmsketch.QueryResult, error) {
	call, name := r.cl.QueryBatch, spanQueryBatch
	if direct {
		call, name = r.cl.QueryDirect, spanQueryDirect
	}
	if tr == nil {
		return call(q)
	}
	id := tr.newID()
	r.cur.set(id, id)
	start := tr.now()
	res, err := call(q)
	tr.add(Span{ID: id, Req: id, Name: name, Start: start, End: tr.now(), Failed: err != nil})
	return res, err
}

// saneResult checks what can be checked of a reply taken while the writer
// runs: one finite non-negative estimate per key, a clock at or past the
// preloaded window, and positive aggregates when requested.
func saneResult(res ecmsketch.QueryResult, q ecmsketch.QueryBatch, floor ecmsketch.Tick) error {
	if len(res.Estimates) != len(q.Keys) {
		return fmt.Errorf("%d estimates for %d keys", len(res.Estimates), len(q.Keys))
	}
	for _, e := range res.Estimates {
		if e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("bad estimate %v", e)
		}
	}
	if res.Now < floor {
		return fmt.Errorf("reply clock %d behind the preloaded window %d", res.Now, floor)
	}
	if q.Total && !(res.Total > 0 && res.SelfJoin > 0) {
		return fmt.Errorf("aggregates total=%v selfJoin=%v", res.Total, res.SelfJoin)
	}
	return nil
}
