package core

import (
	"bytes"
	"testing"

	"ecmsketch/internal/window"
)

// patchFeed tracks, per input, the bank version at the last patch and
// collects the union of changed cells across inputs — the same feed a
// coordinator assembles from its sites' delta applications.
type patchFeed struct {
	baseVers []uint64
	cells    map[int]struct{}
}

func newPatchFeed(inputs []*Sketch) *patchFeed {
	f := &patchFeed{baseVers: make([]uint64, len(inputs)), cells: map[int]struct{}{}}
	for i, in := range inputs {
		f.baseVers[i] = in.DeltaVersion()
	}
	return f
}

func (f *patchFeed) note(idx int) { f.cells[idx] = struct{}{} }

// take collects arrival-changed cells since the last take (expiry-noted
// cells arrive via note) and resets the baselines.
func (f *patchFeed) take(inputs []*Sketch) []int {
	n := inputs[0].d * inputs[0].w
	for k, in := range inputs {
		for i := 0; i < n; i++ {
			if in.bank.CellChangedSince(i, f.baseVers[k]) {
				f.cells[i] = struct{}{}
			}
		}
		f.baseVers[k] = in.DeltaVersion()
	}
	out := make([]int, 0, len(f.cells))
	for idx := range f.cells {
		out = append(out, idx)
	}
	f.cells = map[int]struct{}{}
	return out
}

// TestPatchMergedMatchesMerge pins the incremental re-merge equivalence for
// all three algorithms: a merged sketch patched every interval from the
// changed-cell feed stays byte-identical (Marshal) to a from-scratch Merge
// over the same inputs, across dense, sparse, skewed and idle intervals.
func TestPatchMergedMatchesMerge(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			const nInputs = 4
			inputs := make([]*Sketch, nInputs)
			for i := range inputs {
				s, err := New(sparseParams(algo))
				if err != nil {
					t.Fatal(err)
				}
				inputs[i] = s
			}
			merged, err := Merge(inputs...)
			if err != nil {
				t.Fatal(err)
			}
			feed := newPatchFeed(inputs)

			tick := Tick(0)
			for round := 0; round < 30; round++ {
				switch round % 4 {
				case 0: // dense: every input busy
					for k, in := range inputs {
						for j := 0; j < 40; j++ {
							tick++
							in.AddN(uint64(k*977+j*131), tick, uint64(j%5+1))
						}
					}
				case 1: // sparse: one input, few keys
					in := inputs[round%nInputs]
					for j := 0; j < 3; j++ {
						tick += 7
						in.AddN(uint64(round*31+j), tick, 2)
					}
				case 2: // skewed: two inputs hammer the same keys
					for _, in := range inputs[:2] {
						tick++
						in.AddN(42, tick, 9)
						in.AddN(43, tick, 1)
					}
				case 3: // idle: clocks move, windows expire
					tick += 700
				}
				// Settle everyone to a common interval clock, feeding expiry
				// notes into the union like a coordinator's apply step does.
				for _, in := range inputs {
					in.AdvanceNoting(tick, feed.note)
				}
				if err := PatchMerged(merged, inputs, feed.take(inputs), false, nil); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				fresh, err := Merge(inputs...)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !bytes.Equal(merged.Marshal(), fresh.Marshal()) {
					t.Fatalf("round %d: patched merge diverged from from-scratch merge", round)
				}
			}

			// Membership change: rebuild in place with all=true over a
			// different input set; byte-identical to a fresh flat merge.
			if err := PatchMerged(merged, inputs[1:], nil, true, nil); err != nil {
				t.Fatal(err)
			}
			fresh, err := Merge(inputs[1:]...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged.Marshal(), fresh.Marshal()) {
				t.Fatal("all=true rebuild diverged from from-scratch merge")
			}
		})
	}
}

// TestPatchMergedValidation pins that bad calls fail before mutating dst.
func TestPatchMergedValidation(t *testing.T) {
	a, err := New(sparseParams(window.AlgoEH))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sparseParams(window.AlgoEH))
	if err != nil {
		t.Fatal(err)
	}
	a.AddN(1, 5, 3)
	b.AddN(2, 6, 4)
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	before := merged.Marshal()

	if err := PatchMerged(nil, []*Sketch{a}, nil, true, nil); err == nil {
		t.Error("nil destination accepted")
	}
	if err := PatchMerged(merged, nil, nil, true, nil); err == nil {
		t.Error("no inputs accepted")
	}
	if err := PatchMerged(merged, []*Sketch{a, nil}, nil, true, nil); err == nil {
		t.Error("nil input accepted")
	}
	other, err := New(Params{Epsilon: 0.05, Delta: 0.1, WindowLength: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchMerged(merged, []*Sketch{a, other}, nil, true, nil); err == nil {
		t.Error("incompatible input accepted")
	}
	if err := PatchMerged(merged, []*Sketch{a, b}, []int{merged.d * merged.w}, false, nil); err == nil {
		t.Error("out-of-range cell index accepted")
	}
	if !bytes.Equal(merged.Marshal(), before) {
		t.Error("failed PatchMerged mutated the destination")
	}
}

// TestPatchMergedNilNoteExpires pins that a nil note means "advance without
// reporting": patching a destination whose clock trails the inputs runs
// expiry that drops content, which must neither call the nil note nor leave
// the patched sketch answering differently from a fresh merge. (Bytes are
// not compared: a DW cell expired after merging keeps different level
// bookkeeping than one merged from expired inputs, with equal answers.)
func TestPatchMergedNilNoteExpires(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			inputs := make([]*Sketch, 2)
			for i := range inputs {
				s, err := New(sparseParams(algo))
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 50; j++ {
					s.AddN(uint64(i*97+j%7), Tick(j+1), uint64(j%3+1))
				}
				inputs[i] = s
			}
			merged, err := Merge(inputs...)
			if err != nil {
				t.Fatal(err)
			}
			// The inputs' clocks move past the whole window; the merged
			// destination still holds the old content.
			for _, in := range inputs {
				in.Advance(10 * in.params.WindowLength)
			}
			if err := PatchMerged(merged, inputs, nil, false, nil); err != nil {
				t.Fatal(err)
			}
			fresh, err := Merge(inputs...)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Now() != fresh.Now() {
				t.Fatalf("patched clock %d, fresh merge %d", merged.Now(), fresh.Now())
			}
			r := inputs[0].params.WindowLength
			for key := uint64(0); key < 200; key++ {
				if got, want := merged.Estimate(key, r), fresh.Estimate(key, r); got != want || got != 0 {
					t.Fatalf("key %d: patched estimate %v, fresh merge %v, want 0", key, got, want)
				}
			}
			if got := merged.EstimateTotal(r); got != 0 {
				t.Fatalf("patched total %v after full expiry, want 0", got)
			}
		})
	}
}
