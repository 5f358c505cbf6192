package standing

import (
	"reflect"
	"testing"

	"ecmsketch/internal/core"
)

// ladderTarget is a hand-steered target that also indexes cells (two per
// key, no collisions) and counts Estimate calls, so tests can pin both the
// cell-granular change set and the per-pass estimate memo.
type ladderTarget struct {
	fakeTarget
	estimates int
}

func (l *ladderTarget) Estimate(key uint64, r core.Tick) float64 {
	l.estimates++
	return l.fakeTarget.Estimate(key, r)
}

func (l *ladderTarget) CellIndices(key uint64, dst []int) []int {
	return append(dst, int(key%512), 512+int(key%512))
}

// ladderQueries watches one key with a ladder of rising thresholds, a few
// Below thresholds and a rate query, all over the default window — the
// shape whose per-predicate estimates the pass memo collapses into one.
func ladderQueries(key uint64) []Query {
	var qs []Query
	for v := 1; v <= 17; v++ {
		qs = append(qs, Query{Kind: KindThreshold, Key: key, Value: float64(v)})
	}
	for _, v := range []float64{3, 9, 15} {
		qs = append(qs, Query{Kind: KindThreshold, Key: key, Value: v, Below: true})
	}
	return append(qs, Query{Kind: KindRate, Key: key, Factor: 2, Value: 4})
}

// stripNotification keeps the fields a crossing is judged by; sequence,
// query ID and wall time differ between registries by construction.
func stripNotification(n Notification) Notification {
	n.Seq, n.Query, n.At = 0, 0, 0
	return n
}

// TestStandingPassMatchesPerPredicate drives one registry holding the whole
// ladder and, as the oracle, one registry per predicate (where no estimate
// can be shared) through the same note sequence: the firings must be
// identical, and a ladder pass must read the watched key's estimate once.
func TestStandingPassMatchesPerPredicate(t *testing.T) {
	const key = 7
	ft := &ladderTarget{fakeTarget: fakeTarget{now: 10, est: map[uint64]float64{key: 0}, prev: map[uint64]float64{key: 1}}}
	queries := ladderQueries(key)

	ladder := NewRegistry(Config{Window: 100})
	ladder.Bind(ft)
	_, lw := mustSubscribe(t, ladder, queries...)
	single := make([]*Registry, len(queries))
	sw := make([]*Watcher, len(queries))
	for i, q := range queries {
		single[i] = NewRegistry(Config{Window: 100})
		single[i].Bind(ft)
		_, sw[i] = mustSubscribe(t, single[i], q)
	}

	steps := []struct {
		est  float64
		now  core.Tick
		note func(r *Registry)
	}{
		{5, 10, func(r *Registry) { r.NoteEvents([]core.Event{{Key: key, Tick: 10, N: 5}}) }},
		{12, 11, func(r *Registry) { r.NoteKey(key) }},
		{12, 11, func(r *Registry) { r.NoteEvents([]core.Event{{Key: key + 1, Tick: 11, N: 1}}) }}, // untouched
		{2, 300, func(r *Registry) { r.NoteAdvance() }},
		{17, 301, func(r *Registry) { r.NoteCells([]int{key, 512 + key}, false) }},
		{8, 302, func(r *Registry) { r.NoteCells(nil, true) }},
		{20, 303, func(r *Registry) { r.RefreshTarget(ft, []int{512 + key}, false) }},
		{0, 900, func(r *Registry) { r.NoteAdvance() }},
	}
	fired := 0
	for i, st := range steps {
		ft.est[key], ft.now = st.est, st.now
		ft.estimates = 0
		st.note(ladder)
		if ft.estimates > 1 {
			t.Fatalf("step %d: ladder pass read the estimate %d times, want at most 1", i, ft.estimates)
		}
		var want []Notification
		for j, r := range single {
			st.note(r)
			for _, n := range drain(sw[j]) {
				want = append(want, stripNotification(n))
			}
		}
		got := drain(lw)
		if len(got) != len(want) {
			t.Fatalf("step %d: ladder fired %d, per-predicate %d", i, len(got), len(want))
		}
		for j := range got {
			if g := stripNotification(got[j]); !reflect.DeepEqual(g, want[j]) {
				t.Fatalf("step %d firing %d: ladder %+v, per-predicate %+v", i, j, g, want[j])
			}
		}
		fired += len(got)
	}
	if fired < 10 {
		t.Fatalf("only %d firings: the ladder is not being exercised", fired)
	}
}

// TestStandingPassMemoNotStale registers predicates between passes: each
// must be evaluated against the target's current estimate, never a value
// memoized by an earlier pass.
func TestStandingPassMemoNotStale(t *testing.T) {
	const key = 3
	ft := &ladderTarget{fakeTarget: fakeTarget{now: 10, est: map[uint64]float64{key: 1}}}
	r := NewRegistry(Config{Window: 100})
	r.Bind(ft)
	mustSubscribe(t, r, Query{Kind: KindThreshold, Key: key, Value: 100})
	r.NoteKey(key) // a pass that reads (and would memoize) estimate 1

	ft.est[key] = 50 // moves with no note in between
	info, err := r.Subscribe([]Query{{Kind: KindThreshold, Key: key, Value: 40}})
	if err != nil {
		t.Fatal(err)
	}
	w, got, _, err := r.Attach(info.ID, 0, true) // replays the registration firing
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Rising || got[0].Value != 50 {
		t.Fatalf("registration after a pass saw %+v, want one rising firing at 50", got)
	}
	ft.est[key] = 10
	r.NoteAdvance()
	ft.now = 20
	r.NoteAdvance() // the armed threshold re-checks against 10, not a memo
	if got := drain(w); len(got) != 0 {
		t.Fatalf("falling edge of a plain threshold fired: %+v", got)
	}
	ft.est[key] = 60
	r.NoteKey(key)
	if got := drain(w); len(got) != 1 || got[0].Value != 60 {
		t.Fatalf("re-crossing after the memoized passes: %+v, want one firing at 60", got)
	}
}

// TestStandingPassAllocs pins that an ingest pass costs no per-pass change
// set or key slice: 272 predicates (16 keys × 17 levels) noted with a
// 1024-event batch allocate nothing once scratch has grown.
func TestStandingPassAllocs(t *testing.T) {
	ft := &ladderTarget{fakeTarget: fakeTarget{now: 10, est: map[uint64]float64{}}}
	r := NewRegistry(Config{Window: 100})
	r.Bind(ft)
	var qs []Query
	for k := uint64(0); k < 16; k++ {
		ft.est[k] = float64(k)
		for v := 1; v <= 17; v++ {
			qs = append(qs, Query{Kind: KindThreshold, Key: k, Value: float64(v)})
		}
	}
	mustSubscribe(t, r, qs...)
	evs := make([]core.Event, 1024)
	for i := range evs {
		evs[i] = core.Event{Key: uint64(i % 64), Tick: 10, N: 1}
	}
	r.NoteEvents(evs)
	ft.estimates = 0
	allocs := testing.AllocsPerRun(20, func() { r.NoteEvents(evs) })
	if allocs > 0 {
		t.Fatalf("NoteEvents allocated %.1f times per pass, want 0", allocs)
	}
	if per := ft.estimates / 21; per != 16 {
		t.Fatalf("%d estimates per pass over 16 watched keys, want 16", per)
	}
}
