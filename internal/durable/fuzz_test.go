package durable

import (
	"slices"
	"testing"

	"ecmsketch/internal/core"
)

// FuzzDecodeRecord: the WAL record decoder reads bytes from disk that a
// crash or corruption may have mangled; it must never panic, must size its
// event slice by the input, and must round-trip whatever it accepts.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range []Record{
		{Kind: RecordHeader, Epoch: 99, Gen: 3, Fingerprint: 0xABCD},
		{Kind: RecordBatch, Part: 5, Tick: 1000, Ver: 77, Events: []core.Event{
			{Key: 1, Tick: 1000, N: 1}, {Key: 0xFFFFFFFFFFFFFFFF, Tick: 1001, N: 12},
		}},
		{Kind: RecordAdvance, Part: 2, Tick: 424242},
	} {
		b := AppendRecord(nil, &r)
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{RecordBatch, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if len(r.Events) > len(data)/3 {
			t.Fatalf("%d record bytes decoded into %d events", len(data), len(r.Events))
		}
		again, err := DecodeRecord(AppendRecord(nil, &r))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if again.Kind != r.Kind || again.Epoch != r.Epoch || again.Gen != r.Gen ||
			again.Fingerprint != r.Fingerprint || again.Part != r.Part ||
			again.Tick != r.Tick || again.Ver != r.Ver || !slices.Equal(again.Events, r.Events) {
			t.Fatalf("round trip changed the record: %+v -> %+v", r, again)
		}
	})
}
