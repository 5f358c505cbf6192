package main

import "math"

type metricName struct{ name, unit string }

// perLayer lists the per-layer metrics BENCHMARK.json declares, in report
// order with their units; every traced run prints all of them, zero where
// a workload does not exercise the layer.
var perLayer = []metricName{
	{"ecmclient.self_us", "us"},
	{"ecmclient.body_bytes_per_event", "B/event"},
	{"nethttp.self_us", "us"},
	{"ecmserver.events_self_us", "us"},
	{"ecmserver.query_us", "us"},
	{"ecmserver.direct_us", "us"},
	{"ecmsketch.add_batch_us", "us"},
	{"ecmsketch.rebuilds_per_query", "ratio"},
	{"ecmsketch.rebuild_ms", "ms"},
	{"durable.appends", "count"},
	{"durable.append_us", "us"},
	{"durable.append_bytes_per_event", "B/event"},
	{"durable.syncs", "count"},
	{"durable.sync_us", "us"},
	{"durable.checkpoints", "count"},
	{"durable.checkpoint_ms", "ms"},
	{"standing.eval_us", "us"},
	{"standing.delivery_ms", "ms"},
	{"standing.fired", "count"},
	{"standing.dropped", "count"},
	{"loadgen.late_ms", "ms"},
	{"derived.ingest_over_engine", "ratio"},
}

// coordLayer lists the metrics only the coord workload's traced run adds.
// coord is left out of BENCHMARK.json while it crashes (METRICS.md), so
// these are not declared there.
var coordLayer = []metricName{
	{"ecmserver.snapshot_us", "us"},
	{"coord.refresh_self_ms", "ms"},
	{"coord.merge_ms", "ms"},
	{"coord.pull_ms", "ms"},
	{"coord.pull_max_ms", "ms"},
	{"coord.changed_cells", "count"},
	{"coord.delta_pulls", "count"},
	{"coord.full_pulls", "count"},
	{"coord.failed_pulls", "count"},
}

// layerMetrics is the per-layer metric list of a workload's traced run.
func layerMetrics(workload string) []metricName {
	if workload == "coord" {
		return append(append([]metricName(nil), perLayer...), coordLayer...)
	}
	return perLayer
}

// checkpointLayers sets the durable.checkpoint metrics from the checkpoint
// saves among spans: pass those of the timed phase and of the server's
// Close, which writes a final checkpoint, so that a run shorter than the
// checkpoint interval still times one.
func checkpointLayers(spans []Span, out map[string]float64) {
	var d dist
	for _, s := range spans {
		if s.Name == "durable.save.snapshot" {
			d = append(d, float64(s.dur())/ms)
		}
	}
	out["durable.checkpoints"] = float64(len(d))
	if len(d) > 0 {
		out["durable.checkpoint_ms"] = d.median()
	}
}

// printLayers prints the per-layer metrics of a traced run.
func printLayers(workload string, layer map[string]float64) {
	for _, m := range layerMetrics(workload) {
		say("  %-32s %.6g %s", m.name, layer[m.name], m.unit)
	}
}

// Client span names: the benchmark's own calls into each public API.
const (
	spanAddEvents   = "ecmclient.AddEvents"
	spanQueryBatch  = "ecmclient.QueryBatch"
	spanQueryDirect = "ecmclient.QueryDirect"
	spanTwin        = "ecmsketch.add_batch"
	spanRefresh     = "coord.Refresh"
)

const (
	us = 1e3
	ms = 1e6
)

// spanLayers derives the span-based per-layer figures of one traced run.
// clientOp is the workload's headline client call and rtOp the call whose
// round trips nethttp.self_us is taken from; rate is the traced run's
// ingest_events_per_s, the numerator of derived.ingest_over_engine.
func spanLayers(spans []Span, clientOp, rtOp string, rate float64, out map[string]float64) {
	self := selfTimes(spans)
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	twin := make(map[uint64]int64)
	var (
		clientSelf, rtSelf, events, direct, query, snapshot dist
		twinD, appendD, syncD, evalD, refreshSelf, pull     dist
		bodyBytes, sentEvents, appendBytes                  float64
		syncs, batches                                      int
		roundMax                                            = make(map[uint64]int64)
	)
	for _, s := range spans {
		if s.Name == spanTwin {
			twin[s.Req] += s.dur()
			twinD = append(twinD, float64(s.dur())/us)
		}
	}
	for _, s := range spans {
		parent := byID[s.Parent]
		switch s.Name {
		case spanAddEvents, spanQueryBatch, spanQueryDirect:
			if s.Name == clientOp {
				clientSelf = append(clientSelf, float64(self[s.ID])/us)
			}
			if s.Name == spanAddEvents {
				sentEvents += float64(s.Bytes)
				batches++
			}
		case "nethttp.roundtrip":
			if parent.Name == rtOp {
				rtSelf = append(rtSelf, float64(self[s.ID])/us)
			}
			if parent.Name == spanAddEvents {
				bodyBytes += float64(s.Bytes)
			}
		case "ecmserver.events":
			events = append(events, float64(self[s.ID]-twin[s.Req])/us)
		case "ecmserver.query":
			query = append(query, float64(s.dur())/us)
		case "ecmserver.direct":
			direct = append(direct, float64(s.dur())/us)
		case "ecmserver.snapshot":
			snapshot = append(snapshot, float64(s.dur())/us)
		case "durable.append":
			appendD = append(appendD, float64(s.dur())/us)
			appendBytes += float64(s.Bytes)
		case "durable.sync":
			syncD = append(syncD, float64(s.dur())/us)
			syncs++
		case "standing.eval":
			evalD = append(evalD, float64(s.dur())/us)
		case spanRefresh:
			refreshSelf = append(refreshSelf, float64(self[s.ID])/ms)
		case "coord.pull.delta", "coord.pull.full":
			pull = append(pull, float64(s.dur())/ms)
			roundMax[s.Parent] = max(roundMax[s.Parent], s.dur())
		}
	}
	var pullMax dist
	for _, d := range roundMax {
		pullMax = append(pullMax, float64(d)/ms)
	}
	med := func(d dist) float64 {
		if len(d) == 0 {
			return 0
		}
		return d.median()
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["ecmclient.self_us"] = med(clientSelf)
	out["ecmclient.body_bytes_per_event"] = ratio(bodyBytes, sentEvents)
	out["nethttp.self_us"] = med(rtSelf)
	out["ecmserver.events_self_us"] = med(events)
	out["ecmserver.query_us"] = med(query)
	out["ecmserver.direct_us"] = med(direct)
	out["ecmserver.snapshot_us"] = med(snapshot)
	out["ecmsketch.add_batch_us"] = med(twinD)
	out["durable.appends"] = float64(len(appendD))
	out["durable.append_us"] = med(appendD)
	out["durable.append_bytes_per_event"] = ratio(appendBytes, sentEvents)
	out["durable.syncs"] = float64(syncs)
	out["durable.sync_us"] = med(syncD)
	out["standing.eval_us"] = med(evalD)
	out["coord.refresh_self_ms"] = med(refreshSelf)
	out["coord.pull_ms"] = med(pull)
	out["coord.pull_max_ms"] = med(pullMax)
	if rate > 0 && batches > 0 && out["ecmsketch.add_batch_us"] > 0 {
		// Engine-only rate of the same batches, single-threaded on a
		// memory-only twin, against the end-to-end rate of this run.
		engine := sentEvents / float64(batches) / (out["ecmsketch.add_batch_us"] / 1e6)
		out["derived.ingest_over_engine"] = ratio(rate, engine)
	}
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = 0
		}
	}
}
