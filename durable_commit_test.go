package ecmsketch

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// powerStore wraps a DurableStore and models a machine that can lose power:
// it counts log appends and syncs, remembers each log's length at its last
// sync, and losePower truncates every log back to that length — what a
// crash of the whole machine leaves of an unsynced page cache.
type powerStore struct {
	DurableStore
	syncs, appends atomic.Int64

	mu     sync.Mutex
	synced map[string]int64
}

func newPowerStore() *powerStore {
	return &powerStore{DurableStore: NewMemStore(), synced: make(map[string]int64)}
}

func (s *powerStore) OpenLog(name string) (DurableLog, error) {
	l, err := s.DurableStore.OpenLog(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if _, ok := s.synced[name]; !ok {
		s.synced[name] = 0
	}
	s.mu.Unlock()
	return &powerLog{DurableLog: l, s: s, name: name}, nil
}

func (s *powerStore) Delete(name string) error {
	s.mu.Lock()
	delete(s.synced, name)
	s.mu.Unlock()
	return s.DurableStore.Delete(name)
}

// losePower drops every log's unsynced tail and reports how many bytes
// went.
func (s *powerStore) losePower(t *testing.T) (lost int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, n := range s.synced {
		l, err := s.DurableStore.OpenLog(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		size, err := l.Size()
		if err != nil {
			t.Fatalf("size %s: %v", name, err)
		}
		if err := l.Truncate(n); err != nil {
			t.Fatalf("truncate %s: %v", name, err)
		}
		lost += size - n
		l.Close()
	}
	return lost
}

type powerLog struct {
	DurableLog
	s    *powerStore
	name string
}

func (l *powerLog) Append(p []byte) error {
	l.s.appends.Add(1)
	return l.DurableLog.Append(p)
}

// Sync records the synced length. The WAL serializes a segment's appends
// and syncs, so the size read here is exactly what the sync covered.
func (l *powerLog) Sync() error {
	if err := l.DurableLog.Sync(); err != nil {
		return err
	}
	n, err := l.DurableLog.Size()
	if err != nil {
		return err
	}
	l.s.syncs.Add(1)
	l.s.mu.Lock()
	l.s.synced[l.name] = n
	l.s.mu.Unlock()
	return nil
}

func (l *powerLog) Truncate(size int64) error {
	if err := l.DurableLog.Truncate(size); err != nil {
		return err
	}
	l.s.mu.Lock()
	if l.s.synced[l.name] > size {
		l.s.synced[l.name] = size
	}
	l.s.mu.Unlock()
	return nil
}

// commitQueries is the standing-query set the group-commit tests hang on
// their engines: its evaluation passes run inside every write call and
// settle stripes through Estimate, so settle records interleave with the
// calls' own records.
func commitQueries() []StandingQuery {
	var qs []StandingQuery
	for k := uint64(0); k < 8; k++ {
		qs = append(qs, StandingQuery{Kind: StandingThreshold, Key: k * 37, Value: float64(4 + k)})
	}
	return qs
}

// newCommitEngine builds an engine (durable when store is non-nil, in the
// sync-every mode) with a standing registry bound as its notifier.
func newCommitEngine(t *testing.T, p Params, shards int, store DurableStore) *Sharded {
	t.Helper()
	cfg := ShardedConfig{Params: p, Shards: shards}
	if store != nil {
		cfg.Durability = &DurabilityConfig{Store: store}
	}
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	reg := NewStandingRegistry(StandingConfig{Window: p.WindowLength})
	reg.Bind(sh)
	if _, err := reg.Subscribe(commitQueries()); err != nil {
		t.Fatal(err)
	}
	sh.SetNotifier(reg)
	return sh
}

// TestDurableGroupCommitSyncCount pins the sync-every commit contract: every
// acknowledged write call costs exactly one WAL fsync however many stripes
// it touches, reads (and the settle records they and standing passes
// append) cost none, and a power loss after any acknowledged call recovers
// byte-identically to a reference engine fed the same calls.
func TestDurableGroupCommitSyncCount(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v_shards=%d", algo, shards), func(t *testing.T) {
				p := parallelShardedParams(algo)
				store := newPowerStore()
				a := newCommitEngine(t, p, shards, store)
				ref := newCommitEngine(t, p, shards, nil)
				defer ref.Close()

				var readAppends int64
				// do runs one call on both engines and checks the number
				// of fsyncs it cost the durable one.
				do := func(name string, wantSyncs int64, call func(*Sharded)) {
					t.Helper()
					s0, a0 := store.syncs.Load(), store.appends.Load()
					call(a)
					if got := store.syncs.Load() - s0; got != wantSyncs {
						t.Fatalf("%s: %d fsyncs, want %d", name, got, wantSyncs)
					}
					if wantSyncs == 0 {
						readAppends += store.appends.Load() - a0
					}
					call(ref)
				}
				rng := rand.New(rand.NewSource(int64(shards)))
				tick := Tick(1)
				var evs []Event
				keys := make([]uint64, 24)
				for round := 0; round < 40; round++ {
					tick += Tick(rng.Intn(600))
					evs = evs[:0]
					for e := 0; e < 64; e++ {
						evs = append(evs, Event{Key: uint64(rng.Intn(300)), Tick: tick + Tick(e/8), N: uint64(rng.Intn(3))})
					}
					do("AddBatch", 1, func(sh *Sharded) { sh.AddBatch(evs) })
					key := uint64(rng.Intn(300))
					do("AddN", 1, func(sh *Sharded) { sh.AddN(key, tick+8, 2) })
					if round%5 == 4 {
						tick += 3000
						do("Advance", 1, func(sh *Sharded) { sh.Advance(tick) })
					}
					// A one-key batch far ahead leaves the other stripes'
					// clocks behind, so the reads below settle them.
					far := tick + 5000
					do("AddBatch", 1, func(sh *Sharded) { sh.AddBatch([]Event{{Key: key, Tick: far, N: 1}}) })
					tick = far
					for i := range keys {
						keys[i] = uint64(rng.Intn(300))
					}
					do("Estimate", 0, func(sh *Sharded) { sh.Estimate(keys[0], 1<<62) })
					do("QueryDirect", 0, func(sh *Sharded) {
						if _, err := sh.QueryDirect(QueryBatch{Keys: keys}); err != nil {
							t.Fatal(err)
						}
					})
				}
				if shards > 1 && readAppends == 0 {
					t.Fatal("no read settled an expiring stripe: the zero-fsync read path went untested")
				}

				epoch := a.epoch
				a.CloseAbrupt()
				lost := store.losePower(t)
				if shards > 1 && lost == 0 {
					t.Fatal("nothing unsynced at power loss: the trailing settle records went untested")
				}
				b := newCommitEngine(t, p, shards, store)
				defer b.Close()
				if !b.DurabilityStats().Recovered || b.epoch != epoch {
					t.Fatalf("recovery did not restore epoch %x: %+v", epoch, b.DurabilityStats())
				}
				settleAndCompare(t, b, ref)
			})
		}
	}
}

// TestDurableGroupCommitConcurrent races multi-stripe writers against
// checkpoints (whose segment rotations land inside writers' commits),
// direct reads and clock advances. Stripe locks are taken in ascending
// order, so nothing deadlocks; once every writer has returned, a power loss
// must recover exactly the pre-crash engine, covering commits whose records
// straddle a rotation.
func TestDurableGroupCommitConcurrent(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEH, AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			p := parallelShardedParams(algo)
			store := newPowerStore()
			a := newCommitEngine(t, p, 4, store)

			const writers, batches = 4, 60
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var side sync.WaitGroup
			side.Add(3)
			rotating := make(chan struct{})
			go func() { // checkpoints
				defer side.Done()
				for first := true; ; first = false {
					select {
					case <-stop:
						return
					default:
					}
					err := a.Checkpoint()
					if first {
						close(rotating)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			<-rotating  // writers start with rotations already under way
			go func() { // direct reads
				defer side.Done()
				keys := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := a.QueryDirect(QueryBatch{Keys: keys}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // clock advances
				defer side.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					a.Advance(a.Now())
				}
			}()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					evs := make([]Event, 32)
					for b := 0; b < batches; b++ {
						tick := Tick(1 + b*40 + w)
						for i := range evs {
							evs[i] = Event{Key: uint64(rng.Intn(512)), Tick: tick, N: 1}
						}
						a.AddBatch(evs)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			side.Wait()

			epoch := a.epoch
			a.CloseAbrupt()
			store.losePower(t)
			b := newCommitEngine(t, p, 4, store)
			defer b.Close()
			if b.epoch != epoch {
				t.Fatalf("epoch changed: %x want %x", b.epoch, epoch)
			}
			settleAndCompare(t, b, a)
		})
	}
}
