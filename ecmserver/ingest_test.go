package ecmserver_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/core"
	"ecmsketch/internal/durable"
	"ecmsketch/internal/wire"
	"ecmsketch/internal/workload"
)

// post sends body to srv and returns the status and the decoded JSON reply.
func post(t *testing.T, srv http.Handler, path, contentType string, body io.Reader) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", path, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST %s: reply %q is not JSON: %v", path, rec.Body.String(), err)
	}
	return rec.Code, out
}

// TestBinaryEventsAllOrNothing pins the binary body of POST /v1/events: a
// well-formed run lands in full, and every malformed one is refused with
// 400 and accepted 0 before any of its events is applied.
func TestBinaryEventsAllOrNothing(t *testing.T) {
	srv, err := ecmserver.New(ecmserver.Config{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	home := ecmsketch.KeyString("/home")
	good := core.AppendEvents(nil, []ecmsketch.Event{{Key: home, Tick: 1}, {Key: home, Tick: 2, N: 4}, {Key: 42, Tick: 3}})
	code, out := post(t, srv, "/v1/events", wire.EventsContentType, bytes.NewReader(good))
	if code != http.StatusOK || out["accepted"].(float64) != 3 {
		t.Fatalf("good run: %d %v", code, out)
	}
	before := srv.Engine().Marshal()

	zeroTick := core.AppendEvents(nil, []ecmsketch.Event{{Key: 1, Tick: 5}, {Key: 2, Tick: 0}})
	hugeCount := binary.AppendUvarint(nil, 1<<40)
	hugeCount = append(hugeCount, 1, 1, 1)
	for name, body := range map[string][]byte{
		"empty":      {},
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte(nil), good...), 0),
		"zero tick":  zeroTick,
		"huge count": hugeCount,
	} {
		code, out := post(t, srv, "/v1/events", wire.EventsContentType, bytes.NewReader(body))
		if code != http.StatusBadRequest || out["accepted"].(float64) != 0 {
			t.Errorf("%s: %d %v, want 400 with accepted 0", name, code, out)
		}
	}
	if !bytes.Equal(srv.Engine().Marshal(), before) {
		t.Fatal("a rejected binary body changed the engine")
	}
	if est := srv.Engine().Estimate(home, 10000); est < 5 {
		t.Errorf("/home estimate %v, want ≥ 5", est)
	}
}

// patternReader repeats a byte pattern forever.
type patternReader struct {
	pat []byte
	off int
}

func (p *patternReader) Read(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		c := copy(b[n:], p.pat[p.off:])
		n += c
		p.off = (p.off + c) % len(p.pat)
	}
	return n, nil
}

// TestIngestBodyCap pins MaxIngestBody on every ingest route and body
// format: a body one byte over the cap gets 413.
func TestIngestBodyCap(t *testing.T) {
	srv, err := ecmserver.New(ecmserver.Config{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	comment := []byte("#" + strings.Repeat("x", 1022) + "\n")
	for _, tc := range []struct {
		name, path, contentType string
		head, pattern           []byte
	}{
		{"binary events", "/v1/events", wire.EventsContentType, binary.AppendUvarint(nil, 1<<20), bytes.Repeat([]byte{1}, 1024)},
		{"json events", "/v1/events", "application/json", []byte("["), bytes.Repeat([]byte(" "), 1024)},
		{"csv batch", "/v1/batch", "text/plain", nil, comment},
		{"csv batch, unversioned", "/batch", "text/plain", nil, comment},
	} {
		over := io.MultiReader(bytes.NewReader(tc.head),
			io.LimitReader(&patternReader{pat: tc.pattern}, int64(ecmserver.MaxIngestBody-len(tc.head)+1)))
		code, out := post(t, srv, tc.path, tc.contentType, over)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %v, want 413", tc.name, code, out)
		}
	}
	if n := srv.Engine().Count(); n != 0 {
		t.Errorf("over-cap bodies applied %d arrivals", n)
	}
}

// TestIngestFormatsEquivalent sends one workload stream to three fresh
// durable servers — as binary event runs, JSON arrays and CSV lines — and
// requires identical accepted counts, byte-identical engine encodings and
// byte-identical WAL records: the three formats reach the engine through
// one ingest path, chunk for chunk. A truncated binary body then applies
// nothing, neither to the engine nor to the WAL.
func TestIngestFormatsEquivalent(t *testing.T) {
	gen, err := workload.WorldCup98Like(12000, 50000, 5)
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.Drain()
	// Requests wider than one ingest chunk, so chunking is exercised too.
	const perRequest = 5000

	type body struct {
		contentType string
		path        string
		data        []byte
	}
	encode := map[string]func(evs []workload.Event) body{
		"binary": func(evs []workload.Event) body {
			out := make([]ecmsketch.Event, len(evs))
			for i, ev := range evs {
				out[i] = ecmsketch.Event{Key: ecmsketch.KeyString(strconv.FormatUint(ev.Key, 10)), Tick: ev.Time + 1, N: uint64(i%3 + 1)}
			}
			return body{wire.EventsContentType, "/v1/events", core.AppendEvents(nil, out)}
		},
		"json": func(evs []workload.Event) body {
			out := make([]ecmserver.WireEvent, len(evs))
			for i, ev := range evs {
				out[i] = ecmserver.WireEvent{Key: strconv.FormatUint(ev.Key, 10), T: ev.Time + 1, N: uint64(i%3 + 1)}
			}
			b, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			return body{"application/json", "/v1/events", b}
		},
		"csv": func(evs []workload.Event) body {
			var b bytes.Buffer
			for i, ev := range evs {
				fmt.Fprintf(&b, "%d,%d,%d\n", ev.Key, ev.Time+1, i%3+1)
			}
			return body{"text/plain", "/v1/batch", b.Bytes()}
		},
	}

	type result struct {
		accepted []float64
		engine   []byte
		wal      []byte
	}
	newServer := func() (*ecmserver.Server, ecmsketch.DurableStore) {
		store := ecmsketch.NewMemStore()
		srv, err := ecmserver.New(ecmserver.Config{
			Epsilon: 0.05, Delta: 0.05, WindowLength: 20000, Seed: 11, Shards: 2, DurableStore: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, store
	}
	results := map[string]result{}
	for _, format := range []string{"binary", "json", "csv"} {
		srv, store := newServer()
		var res result
		for lo := 0; lo < len(stream); lo += perRequest {
			b := encode[format](stream[lo:min(lo+perRequest, len(stream))])
			code, out := post(t, srv, b.path, b.contentType, bytes.NewReader(b.data))
			if code != http.StatusOK {
				t.Fatalf("%s: %d %v", format, code, out)
			}
			res.accepted = append(res.accepted, out["accepted"].(float64))
		}
		res.engine = srv.Engine().Marshal()
		res.wal = walRecords(t, store)
		if format == "binary" {
			b := encode[format](stream[:perRequest])
			code, out := post(t, srv, b.path, b.contentType, bytes.NewReader(b.data[:len(b.data)-2]))
			if code != http.StatusBadRequest || out["accepted"].(float64) != 0 {
				t.Fatalf("truncated binary body: %d %v", code, out)
			}
			if !bytes.Equal(srv.Engine().Marshal(), res.engine) || !bytes.Equal(walRecords(t, store), res.wal) {
				t.Fatal("truncated binary body changed the engine or the WAL")
			}
		}
		srv.Close()
		results[format] = res
	}
	want := results["binary"]
	if len(want.wal) == 0 {
		t.Fatal("binary server logged no WAL records")
	}
	for _, format := range []string{"json", "csv"} {
		got := results[format]
		if fmt.Sprint(got.accepted) != fmt.Sprint(want.accepted) {
			t.Errorf("%s accepted %v, binary %v", format, got.accepted, want.accepted)
		}
		if !bytes.Equal(got.engine, want.engine) {
			t.Errorf("%s engine encoding differs from binary", format)
		}
		if !bytes.Equal(got.wal, want.wal) {
			t.Errorf("%s WAL records differ from binary (%d vs %d bytes)", format, len(got.wal), len(want.wal))
		}
	}
}

// walRecords returns the bytes of every WAL segment in store after its
// header frame. Headers carry the engine's randomly drawn epoch, so they
// differ between servers by design; everything logged after them is the
// ingest itself.
func walRecords(t *testing.T, store ecmsketch.DurableStore) []byte {
	t.Helper()
	var out []byte
	for _, name := range store.(*durable.MemStore).Names() {
		if !strings.HasPrefix(name, "wal-") {
			continue
		}
		log, err := store.OpenLog(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := log.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		hdr := 8 + int(binary.LittleEndian.Uint32(data))
		out = append(out, data[hdr:]...)
	}
	return out
}
