package core

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzUnmarshalECM: the sketch decoder must never panic on arbitrary bytes.
func FuzzUnmarshalECM(f *testing.F) {
	s, err := New(Params{Epsilon: 0.2, Delta: 0.2, WindowLength: 500, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 300; i++ {
		s.Add(uint64(i%17), i)
	}
	enc := s.Marshal()
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{0xEC})
	f.Add(enc[:len(enc)/3])
	mut := append([]byte(nil), enc...)
	mut[len(mut)/4] ^= 0x5A
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Unmarshal(data)
		if err != nil {
			return
		}
		if got := dec.Estimate(3, 500); got < 0 {
			t.Fatalf("negative estimate %v", got)
		}
		dec.Add(1, dec.Now()+1)
		_ = dec.SelfJoin(100)
	})
}

// FuzzECMPointBound drives a sketch with arbitrary small streams and checks
// the Theorem 1 bound against a brute-force count.
func FuzzECMPointBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{0, 1, 0, 2, 1})
	f.Add([]byte{9, 9, 9}, []byte{3, 3, 3})
	f.Fuzz(func(t *testing.T, gaps, keys []byte) {
		if len(gaps) == 0 || len(keys) == 0 {
			return
		}
		const eps = 0.25
		s, err := New(Params{Epsilon: eps, Delta: 0.1, WindowLength: 300, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		exact := map[uint64][]Tick{}
		var now Tick
		var all []Tick
		for i, g := range gaps {
			now += Tick(g % 7)
			if now == 0 {
				now = 1
			}
			k := uint64(keys[i%len(keys)] % 16)
			s.Add(k, now)
			exact[k] = append(exact[k], now)
			all = append(all, now)
		}
		s.Advance(now)
		// Window (now-300, now].
		var ws Tick
		if now > 300 {
			ws = now - 300
		}
		inWin := func(ts []Tick) float64 {
			c := 0.0
			for _, tt := range ts {
				if tt > ws {
					c++
				}
			}
			return c
		}
		l1 := inWin(all)
		split := s.EffectiveSplit()
		for k, ts := range exact {
			got := s.Estimate(k, 300)
			want := inWin(ts)
			if got-want > eps*l1+1 {
				t.Fatalf("Estimate(%d)=%v true=%v exceeds ε·‖a‖=%v", k, got, want, eps*l1)
			}
			if got < (1-split.EpsSW)*want-1 {
				t.Fatalf("Estimate(%d)=%v undershoots true %v beyond ε_sw=%v", k, got, want, split.EpsSW)
			}
		}
	})
}

// FuzzDecodeEvents: the event-run decoder (the /v1/events binary body and
// the WAL batch payload) must never panic, must size its output by the
// input rather than by the declared count, and must round-trip whatever it
// accepts.
func FuzzDecodeEvents(f *testing.F) {
	enc := AppendEvents(nil, []Event{{Key: 1, Tick: 1}, {Key: 1<<64 - 1, Tick: 1 << 40, N: 7}, {Key: 300, Tick: 2, N: 0}})
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte(nil), enc...), 9))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeEvents(data, nil)
		if limit := len(data) / minEventBytes; len(evs) > limit || cap(evs) > 2*limit {
			t.Fatalf("%d input bytes decoded into len %d cap %d", len(data), len(evs), cap(evs))
		}
		if err != nil {
			return
		}
		again, err := DecodeEvents(AppendEvents(nil, evs), nil)
		if err != nil {
			t.Fatalf("re-encoded run rejected: %v", err)
		}
		if !slices.Equal(again, evs) {
			t.Fatalf("round trip changed the events: %v -> %v", evs, again)
		}
	})
}
