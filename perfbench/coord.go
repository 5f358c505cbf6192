package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"ecmsketch"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/workload"
)

const (
	coordSites        = 8
	coordWindowEvents = 100_000           // stream events per window, over all sites
	coordSlice        = windowTicks / 200 // event-time ingested per round
)

// fleet is the coord workload's system: memory-only sites fed in-process
// and one coordinator pulling them over loopback HTTP.
type fleet struct {
	sites   []*site
	co      *coord.Coordinator
	st      *stream
	audit   *auditor
	refresh clientSpan // the Refresh in flight, for pull spans
	next    ecmsketch.Tick
}

func (f *fleet) close() {
	for _, s := range f.sites {
		s.close()
	}
}

// newFleet starts the sites, preloads one full window of the SNMP-shaped,
// site-skewed stream into them, and bootstraps the coordinator with its
// first (full-pull) Refresh.
func newFleet(seed int64, tr *tracer) (*fleet, error) {
	var gens [2]*workload.Generator // the stream, and its trailing copy for the oracle
	for i := range gens {
		g, err := workload.NewGenerator(workload.Config{
			Events:    coordWindowEvents * streamWindows,
			Duration:  windowTicks * streamWindows,
			KeyDomain: 1 << 14, // SNMPLike's key shape
			Skew:      1.1,
			Sites:     coordSites,
			SiteSkew:  0.9,
			Diurnal:   true,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	f := &fleet{st: &stream{g: gens[0]}, audit: newAuditor(gens[0], gens[1])}
	var members []coord.Site
	for i := 0; i < coordSites; i++ {
		s, err := newSite("", tr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.sites = append(f.sites, s)
		var ts *tracingSite
		var cur *clientSpan
		if tr != nil {
			ts = &tracingSite{tr: tr, refresh: &f.refresh}
			cur = &ts.pull
		}
		hs := coord.NewHTTPSite(s.http.URL, &http.Client{Transport: newTransport(tr, cur), Timeout: 30 * time.Second})
		hs.SetName(fmt.Sprintf("site%d", i))
		if ts == nil {
			members = append(members, hs)
		} else {
			ts.Site = hs
			members = append(members, ts)
		}
	}
	// The ecmcoord -serve defaults: delta pulls, resilient membership,
	// incremental Refresh.
	f.co = coord.New(members...)
	f.co.SetDeltaPulls(true)
	f.co.SetResilient(true)
	f.ingest(windowTicks)
	if err := f.co.Refresh(); err != nil {
		f.close()
		return nil, fmt.Errorf("bootstrap refresh: %w", err)
	}
	return f, nil
}

// ingest feeds every event up to tick t into its site through
// Sharded.AddBatch, and into the oracle; it returns the events fed.
func (f *fleet) ingest(t ecmsketch.Tick) int {
	per := make([][]ecmsketch.Event, coordSites)
	f.st.until(t, per)
	n := 0
	for i, evs := range per {
		f.sites[i].srv.Engine().AddBatch(evs)
		f.audit.add(evs)
		n += len(evs)
	}
	f.next = t
	return n
}

// runCoord: closed-loop rounds, each ingesting a fixed event-time slice
// into the 8 sites and then running one Coordinator.Refresh.
func runCoord(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var setups dist
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		var t *tracer
		if last {
			t = tr
		}
		start := time.Now()
		fl, err := newFleet(cfg.seed, t)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if last {
			f = fl
		} else {
			fl.close()
		}
	}
	defer f.close()
	o.e2e["setup_s"] = setups.median()

	var (
		ingestLat, refreshLat, mergeMs dist
		pulled, changed, failedPulls   int64
		rates                          *buckets // events per second of round time
	)
	deltas0, fulls0 := f.co.DeltaPulls(), f.co.FullPulls()
	flushDisk()
	var timedFrom int64
	if tr != nil {
		timedFrom = tr.now()
	}
	start := time.Now()
	rates = newBuckets(start)
	for time.Since(start) < cfg.seconds {
		t0 := time.Now()
		n := f.ingest(f.next + coordSlice)
		t1 := time.Now()
		var id uint64
		var rs int64
		if tr != nil {
			id = tr.newID()
			f.refresh.set(id, id)
			rs = tr.now()
		}
		err := f.co.Refresh()
		t2 := time.Now()
		if tr != nil {
			tr.add(Span{ID: id, Req: id, Name: spanRefresh, Start: rs, End: tr.now(), Failed: err != nil})
		}
		o.attempted++
		if err != nil {
			o.failed++
			fmt.Println("coord: refresh failed:", err)
			continue
		}
		st := f.co.LastRefresh()
		rates.add(t2, float64(n), t2.Sub(t0).Seconds())
		ingestLat = append(ingestLat, float64(t1.Sub(t0))/ms)
		refreshLat = append(refreshLat, float64(t2.Sub(t1))/ms)
		mergeMs = append(mergeMs, float64(st.MergeNs)/ms)
		pulled += st.PulledBytes
		changed += int64(st.ChangedCells)
		failedPulls += int64(st.Stale + st.Excluded)
	}
	end := time.Now()
	deltas, fulls := f.co.DeltaPulls()-deltas0, f.co.FullPulls()-fulls0
	var timedTo int64
	if tr != nil {
		timedTo = tr.now()
	}
	o.e2e["heap_mb"] = heapMB()

	// End-of-run checks: the incrementally patched root must be
	// byte-identical to a from-scratch flat merge, and its estimates of the
	// sampled keys within the merged ε·‖a‖₁ bound.
	o.attempted++
	root, err := f.co.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("coordinator root: %w", err)
	}
	flat, _, err := f.co.AggregateFlat()
	if err != nil {
		return nil, fmt.Errorf("flat merge: %w", err)
	}
	if !bytes.Equal(root.Marshal(), flat.Marshal()) {
		o.checkFailures++
		say("coord: CHECK FAILED: incremental root differs from AggregateFlat")
	}
	est := make([]float64, len(f.audit.keys))
	for i, k := range f.audit.keys {
		est[i] = root.Estimate(k, windowTicks)
	}
	bad := f.audit.check(est)
	o.checkFailures += int64(bad)

	n := float64(len(refreshLat))
	rate := rates.rate(end)
	o.e2e["err_ratio_max"] = f.audit.worst
	o.e2e["ingest_events_per_s"] = rate
	o.e2e["read_p50_ms"] = refreshLat.median()
	say("coord: %d rounds of %d ticks into %d sites, audited %d keys (%d beyond ε bound), root checked against AggregateFlat",
		len(refreshLat), coordSlice, coordSites, len(f.audit.keys), bad)
	say("  %-22s %.4g s (median of %d)", "setup_s", o.e2e["setup_s"], setupRepeats)
	say("  %-22s %.4g MB", "heap_mb", o.e2e["heap_mb"])
	say("  %-22s %.4g", "err_ratio_max", f.audit.worst)
	printTiming("refresh", refreshLat)
	say("  %-22s %.4g ms (= refresh_p50_ms)", "read_p50_ms", o.e2e["read_p50_ms"])
	say("  %-22s %.6g B", "pull_bytes_per_round", float64(pulled)/n)
	say("  %-22s %.6g 1/s (in-process AddBatch over whole rounds; round ingest %s)", "ingest_events_per_s", rate, ingestLat.describe("ms"))

	if tr != nil {
		spanLayers(tr.within(timedFrom, timedTo), "", "coord.pull.delta", rate, o.layer)
		o.layer["coord.merge_ms"] = mergeMs.median()
		o.layer["coord.changed_cells"] = float64(changed) / n
		o.layer["coord.delta_pulls"] = float64(deltas)
		o.layer["coord.full_pulls"] = float64(fulls)
		o.layer["coord.failed_pulls"] = float64(failedPulls)
		printLayers("coord", o.layer)
	}
	return o, nil
}
