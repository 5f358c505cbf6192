package ecmsketch

// This file wires the internal/durable storage subsystem into the Sharded
// engine: periodic checkpoints (arena snapshots plus the version vectors
// the wire format omits), a CRC-framed WAL of applied mutations between
// checkpoints, and recovery that restores the pre-crash state — same
// epoch, same cell versions — so a restart invalidates no downstream
// delta cursor.
//
// Correctness hinges on four invariants:
//
//   - Per-stripe WAL order equals apply order: records are appended while
//     the stripe lock is still held, so replaying a segment in append
//     order replays each stripe's mutations in their original order
//     (cross-stripe interleaving is irrelevant — stripes are independent).
//   - With SyncInterval == 0 each write call (AddBatch, AddN, Advance)
//     ends with one commit: one fsync under mu, holding the locks of the
//     stripes it mutated (taken in ascending order), so nothing is visible
//     to a query, delta pull or standing notification before it is
//     durable. Read-path settle records get no sync of their own and ride
//     the next commit: they are pure expiry, and a lost unsynced suffix of
//     them replays to the same settled state.
//   - Expiry runs in replay exactly where it ran originally. Batch records
//     carry the stripe clock from immediately before the apply; replay
//     restores it clock-only (SetClock — no settling), so per-cell expiry
//     happens at the replayed inserts and at replayed advance records and
//     nowhere else. That ordering is load-bearing: randomized-wave levels
//     evict at capacity before expiring, so settling a cell early or late
//     changes which entries survive. Clock advances that drop content —
//     explicit Advance calls, and read-path settles that actually expire
//     something — are therefore logged as advance records; settles that
//     drop nothing are not (cell-clock drift converges at the next settle).
//   - A checkpoint seals the active segment (sync, then rotate appends to
//     the next generation) before capturing stripes, so the sealed
//     segment is entirely covered by the blob and can be deleted; the new
//     segment may overlap the blob, which replay tolerates by skipping
//     records whose post-apply version the restored stripe already has.
//
// Anything that fails validation on the way back in — snapshot CRC or
// fingerprint, WAL segment header, a replay version cross-check — discards
// all durable state and starts under a fresh epoch: exactly the cursor
// invalidation pullers already handle, never corrupt state.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch/internal/core"
	"ecmsketch/internal/durable"
)

// DurableStore is the pluggable persistence hook durability rides on: an
// atomic blob store plus append-only logs. NewMemStore and NewFileStore
// are the in-tree implementations; any dependency-backed store (an
// object store, a KV engine) plugs in by implementing it.
type DurableStore = durable.Store

// DurableLog is the append-only log half of a DurableStore.
type DurableLog = durable.Log

// ErrDurableNotFound is what DurableStore.Load returns for a blob that has
// never been saved (or was deleted) — the signal callers branch on to
// bootstrap fresh instead of restoring.
var ErrDurableNotFound = durable.ErrNotFound

// NewMemStore returns the dependency-free in-memory store: state survives
// engine restarts exactly as long as the store value itself is retained.
func NewMemStore() DurableStore { return durable.NewMemStore() }

// NewFileStore returns the file-backed store rooted at dir (one flat
// directory per engine), creating it if needed. Blob saves are
// crash-atomic (temp file, fsync, rename, directory fsync).
func NewFileStore(dir string) (DurableStore, error) { return durable.NewFileStore(dir) }

// DurabilityConfig opts a Sharded engine into durable state.
type DurabilityConfig struct {
	// Store persists the engine's epoch, checkpoints and WAL. Required.
	Store DurableStore
	// SnapshotInterval is the checkpoint cadence: every interval the
	// engine writes a full snapshot blob and rotates the WAL, bounding
	// replay work at recovery. 0 checkpoints only at construction, Close
	// and explicit Checkpoint calls — the WAL then grows until one.
	SnapshotInterval time.Duration
	// SyncInterval is the fsync cadence of WAL appends. 0 (the default)
	// ends every write call with one fsync covering the records of every
	// stripe it touched: the write is durable, and visible, when its call
	// returns. A positive interval batches fsyncs in the background: a
	// crash may lose up to one interval of the most recent acknowledged
	// writes (always a per-stripe suffix — never a gap), which is the
	// usual group-commit trade. Flush and Checkpoint always sync
	// regardless. Known hazard: with a positive interval, delta pulls can
	// serve unsynced records; after a machine crash (not kill -9) recovery
	// reuses the epoch and reissues those cell versions with different
	// content, so a puller's cursor can silently diverge.
	SyncInterval time.Duration
}

// DurabilityStats is the observability block /v1/stats exposes.
type DurabilityStats struct {
	Enabled            bool   `json:"enabled"`
	Epoch              uint64 `json:"epoch,omitempty"`
	Generation         uint64 `json:"generation,omitempty"`
	LastSnapshotTick   uint64 `json:"lastSnapshotTick"`
	LastSnapshotUnixMs int64  `json:"lastSnapshotUnixMs"`
	WALRecords         uint64 `json:"walRecords"` // since the last checkpoint
	WALBytes           uint64 `json:"walBytes"`   // since the last checkpoint
	LastFsyncNs        int64  `json:"lastFsyncNs"`
	Recovered          bool   `json:"recovered"`       // construction restored prior state
	ReplayedRecords    uint64 `json:"replayedRecords"` // WAL records replayed at recovery
	Errors             uint64 `json:"errors"`          // WAL append/sync/checkpoint failures
}

const durSnapshotBlob = "snapshot"

func durWALName(gen uint64) string { return fmt.Sprintf("wal-%d", gen) }

// durableState is the engine-side handle: the store, the active WAL
// segment and generation, and the stats counters.
type durableState struct {
	store     DurableStore
	fp        uint64
	syncEvery bool // one fsync per write call (SyncInterval == 0)

	// mu guards the active segment (wal, gen, closed) and the encoding
	// scratch. Appends take it while holding a stripe lock; nothing under
	// mu ever takes a stripe lock, so the order is acyclic.
	mu     sync.Mutex
	wal    *durable.WAL
	gen    uint64
	closed bool
	buf    []byte

	// ckptMu serializes checkpoints (interval loop, Close, explicit calls).
	ckptMu sync.Mutex

	lastSnapTick atomic.Uint64
	lastSnapWall atomic.Int64
	errs         atomic.Uint64
	recovered    bool
	replayed     uint64

	snapStop, snapDone chan struct{}
	syncStop, syncDone chan struct{}
}

// initDurable recovers prior durable state (or discards to a fresh epoch)
// and starts the checkpoint/sync loops. Called from NewSharded after the
// stripes exist but before any background goroutine can mutate them.
func (sh *Sharded) initDurable(dc *DurabilityConfig) error {
	if dc.Store == nil {
		return errors.New("ecmsketch: DurabilityConfig.Store is required")
	}
	if dc.SnapshotInterval < 0 || dc.SyncInterval < 0 {
		return errors.New("ecmsketch: durability intervals must be non-negative")
	}
	d := &durableState{store: dc.Store, syncEvery: dc.SyncInterval == 0}
	sh.dur = d
	d.fp = sh.durableFingerprint()

	snap := sh.loadCheckpoint(d)
	activeGen := uint64(1)
	var replayedGens []uint64
	if snap != nil {
		if ok := sh.restoreCheckpoint(snap); ok {
			d.recovered = true
			activeGen = snap.Gen + 2
			replayedGens = []uint64{snap.Gen, snap.Gen + 1}
		} else if err := sh.resetStripes(); err != nil {
			return err
		}
	}

	// Open the new active segment (truncating any stale file from a dead
	// previous life), then persist the current state under it: from here
	// the blob covers everything before the segment, the segment covers
	// everything after.
	wal, err := d.openSegment(sh.epoch, activeGen)
	if err != nil {
		return err
	}
	d.wal = wal
	d.gen = activeGen
	if err := sh.writeCheckpointBlob(activeGen); err != nil {
		return err
	}
	for _, g := range replayedGens {
		_ = d.store.Delete(durWALName(g))
	}

	if dc.SnapshotInterval > 0 {
		d.snapStop = make(chan struct{})
		d.snapDone = make(chan struct{})
		go sh.durSnapshotLoop(dc.SnapshotInterval)
	}
	if dc.SyncInterval > 0 {
		d.syncStop = make(chan struct{})
		d.syncDone = make(chan struct{})
		go sh.durSyncLoop(dc.SyncInterval)
	}
	return nil
}

// durableFingerprint hashes the engine configuration: every Params field,
// the resolved Count-Min dimensions, and the stripe count. A persisted
// state with a different fingerprint was written by a differently
// configured engine and is discarded rather than reinterpreted. (Hashing a
// fresh stripe's encoding would be simpler but is not deterministic across
// process lifetimes: randomized-wave cells draw process-unique identifier
// salts at construction.)
func (sh *Sharded) durableFingerprint() uint64 {
	sk := sh.shards[0].sk
	p := sk.Params()
	h := fnv.New64a()
	fmt.Fprintf(h, "%g|%g|%v|%v|%v|%d|%d|%d|%d|%d|%d",
		p.Epsilon, p.Delta, p.Query, p.Algorithm, p.Model,
		p.WindowLength, p.UpperBound, p.Seed, sk.Width(), sk.Depth(), len(sh.shards))
	if p.Split != nil {
		fmt.Fprintf(h, "|%g|%g", p.Split.EpsCM, p.Split.EpsSW)
	}
	return h.Sum64()
}

// loadCheckpoint returns the persisted snapshot if it exists and passes
// every validation; nil means "nothing usable — start fresh".
func (sh *Sharded) loadCheckpoint(d *durableState) *durable.Snapshot {
	blob, err := d.store.Load(durSnapshotBlob)
	if err != nil {
		return nil
	}
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil || snap.Fingerprint != d.fp || len(snap.Parts) != len(sh.shards) || snap.Epoch == 0 {
		return nil
	}
	return snap
}

// restoreCheckpoint installs the snapshot's stripes and replays the WAL
// segments it may be paired with. Reports false when anything fails
// validation — the caller then discards to a fresh epoch.
func (sh *Sharded) restoreCheckpoint(snap *durable.Snapshot) bool {
	// Decode and validate every part before installing any, so a failure
	// leaves the fresh stripes untouched.
	sks := make([]*Sketch, len(snap.Parts))
	for i := range snap.Parts {
		p := &snap.Parts[i]
		sk, err := core.Unmarshal(p.Enc)
		if err != nil || !sh.shards[i].sk.Compatible(sk) {
			return false
		}
		if err := sk.RestoreVersionVector(p.Ver, p.Vers); err != nil {
			return false
		}
		sks[i] = sk
	}
	for i, sk := range sks {
		sh.shards[i].sk = sk
	}
	if !sh.replayWAL(snap) {
		return false
	}
	sh.epoch = snap.Epoch
	now := snap.Now
	for i := range sh.shards {
		s := &sh.shards[i]
		s.count.Store(s.sk.Count())
		s.deltaVer.Store(s.sk.DeltaVersion())
		if n := s.sk.Now(); n > now {
			now = n
		}
	}
	sh.now.Store(now)
	return true
}

// replayWAL applies the snapshot generation's segment and its successor
// (at most those two can exist; the checkpoint that would have deleted
// the first also wrote a newer blob). Reports false on a validation
// failure; torn tails within a segment are not failures — durable.Replay
// already truncated them to the last intact frame.
func (sh *Sharded) replayWAL(snap *durable.Snapshot) bool {
	for gen := snap.Gen; gen <= snap.Gen+1; gen++ {
		log, err := sh.dur.store.OpenLog(durWALName(gen))
		if err != nil {
			return false
		}
		recs, err := durable.Replay(log)
		closeErr := log.Close()
		if err != nil || closeErr != nil {
			return false
		}
		if len(recs) == 0 {
			continue
		}
		hdr, err := durable.DecodeRecord(recs[0])
		if err != nil || hdr.Kind != durable.RecordHeader ||
			hdr.Epoch != snap.Epoch || hdr.Gen != gen || hdr.Fingerprint != sh.dur.fp {
			// A stale or foreign segment (e.g. left by a previous epoch's
			// life and never cleaned): its records mean nothing here.
			continue
		}
		for _, raw := range recs[1:] {
			rec, err := durable.DecodeRecord(raw)
			if err != nil {
				return false
			}
			if rec.Part >= uint64(len(sh.shards)) {
				return false
			}
			sk := sh.shards[rec.Part].sk
			switch rec.Kind {
			case durable.RecordAdvance:
				sk.Advance(rec.Tick)
			case durable.RecordBatch:
				if rec.Ver <= sk.DeltaVersion() {
					continue // already covered by the snapshot
				}
				// Restore the pre-apply clock without settling: expiry must
				// run only where the original ran it (see SetClock).
				sk.SetClock(rec.Tick)
				sk.AddBatch(rec.Events)
				if sk.DeltaVersion() != rec.Ver {
					// The record does not continue the restored state — a
					// gap or divergence durability must never paper over.
					return false
				}
			default:
				return false
			}
			sh.dur.replayed++
		}
	}
	return true
}

// resetStripes rebuilds every stripe empty (after a half-installed
// restore was abandoned), re-deriving the deterministic identifier salts.
func (sh *Sharded) resetStripes() error {
	for i := range sh.shards {
		s, err := New(sh.params)
		if err != nil {
			return err
		}
		s.SetIDSalt(0x9e37_79b9_7f4a_7c15 * uint64(i+1))
		s.NormalizeCellSalts()
		sh.shards[i].sk = s
		sh.shards[i].count.Store(0)
		sh.shards[i].deltaVer.Store(0)
	}
	return nil
}

// openSegment opens WAL segment gen empty and writes its header record,
// synced: a segment is identifiable before anything rides on it.
func (d *durableState) openSegment(epoch, gen uint64) (*durable.WAL, error) {
	log, err := d.store.OpenLog(durWALName(gen))
	if err != nil {
		return nil, err
	}
	if err := log.Truncate(0); err != nil {
		log.Close()
		return nil, err
	}
	w := durable.NewWAL(log)
	hdr := durable.AppendRecord(nil, &durable.Record{
		Kind: durable.RecordHeader, Epoch: epoch, Gen: gen, Fingerprint: d.fp,
	})
	if err := w.Append(hdr, true); err != nil {
		w.Close()
		return nil, err
	}
	w.ResetStats() // the header is framing, not logged work
	return w, nil
}

// writeCheckpointBlob captures every stripe (arena clone plus version
// vector under the stripe lock; encoding outside it) and atomically saves
// the snapshot blob at generation gen. Stripes are deliberately captured
// unsettled — replay reproduces insert-time expiry exactly (see the file
// comment), and settling is the receiver's job, as everywhere else in the
// delta protocol.
func (sh *Sharded) writeCheckpointBlob(gen uint64) error {
	d := sh.dur
	parts := make([]durable.SnapshotPart, len(sh.shards))
	for i := range sh.shards {
		s := &sh.shards[i]
		s.mu.Lock()
		ver, vers := s.sk.VersionVector()
		snap, err := s.sk.Snapshot()
		s.mu.Unlock()
		if err != nil {
			return err
		}
		parts[i] = durable.SnapshotPart{Enc: snap.Marshal(), Ver: ver, Vers: vers}
	}
	blob := durable.Snapshot{
		Epoch: sh.epoch, Gen: gen, Now: sh.now.Load(), Fingerprint: d.fp, Parts: parts,
	}
	if err := d.store.Save(durSnapshotBlob, blob.Encode()); err != nil {
		return err
	}
	d.lastSnapTick.Store(blob.Now)
	d.lastSnapWall.Store(time.Now().UnixMilli())
	return nil
}

// Checkpoint writes a durable snapshot of the engine and rotates the WAL:
// the sealed segment is synced first (so nothing acknowledged is lost),
// captured entirely by the blob, and then deleted. Recovery after a
// checkpoint replays only what arrived since. Returns an error on engines
// built without a DurabilityConfig.
func (sh *Sharded) Checkpoint() error {
	d := sh.dur
	if d == nil {
		return errors.New("ecmsketch: engine has no durability configured")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("ecmsketch: engine is closed")
	}
	if err := d.wal.Sync(); err != nil {
		d.mu.Unlock()
		d.errs.Add(1)
		return err
	}
	oldGen := d.gen
	newWal, err := d.openSegment(sh.epoch, oldGen+1)
	if err != nil {
		d.mu.Unlock()
		d.errs.Add(1)
		return err
	}
	oldWal := d.wal
	d.wal = newWal
	d.gen = oldGen + 1
	d.mu.Unlock()

	// Appends now go to the new segment; every record in the sealed one
	// happened before its stripe's capture below, so the blob covers it.
	if err := sh.writeCheckpointBlob(oldGen + 1); err != nil {
		d.errs.Add(1)
		return err
	}
	if err := oldWal.Close(); err != nil {
		d.errs.Add(1)
	}
	return d.store.Delete(durWALName(oldGen))
}

// DurabilityStats reports the durability observability block; Enabled is
// false (and everything else zero) on engines without a DurabilityConfig.
func (sh *Sharded) DurabilityStats() DurabilityStats {
	d := sh.dur
	if d == nil {
		return DurabilityStats{}
	}
	d.mu.Lock()
	gen := d.gen
	recs, bytes, syncNs := d.wal.Stats()
	d.mu.Unlock()
	return DurabilityStats{
		Enabled:            true,
		Epoch:              sh.epoch,
		Generation:         gen,
		LastSnapshotTick:   d.lastSnapTick.Load(),
		LastSnapshotUnixMs: d.lastSnapWall.Load(),
		WALRecords:         recs,
		WALBytes:           bytes,
		LastFsyncNs:        syncNs,
		Recovered:          d.recovered,
		ReplayedRecords:    d.replayed,
		Errors:             d.errs.Load(),
	}
}

// settleStripe advances stripe si to the engine clock on behalf of a read,
// logging an advance record only when the settle actually dropped content —
// the one case replay must reproduce (randomized-wave capacity eviction
// depends on expiry position; see the file comment). Settles that drop
// nothing stay off the WAL, so steady-state reads cost no I/O. Must be
// called with the stripe lock held.
func (sh *Sharded) settleStripe(si int, now Tick) {
	s := &sh.shards[si]
	if sh.dur == nil {
		s.sk.Advance(now)
		return
	}
	changed := false
	s.sk.AdvanceNoting(now, func(int) { changed = true })
	if changed {
		sh.logAdvance(si, now)
	}
}

// logBatch appends one applied sub-batch to the WAL. Must be called while
// the part's stripe lock is still held: that is what makes per-stripe WAL
// order equal apply order, the invariant replay depends on.
func (sh *Sharded) logBatch(part int, preNow Tick, ver uint64, events []Event) {
	sh.dur.appendRecord(&durable.Record{
		Kind: durable.RecordBatch, Part: uint64(part), Tick: preNow, Ver: ver, Events: events,
	})
}

// logAdvance appends one applied clock advance; same locking contract as
// logBatch.
func (sh *Sharded) logAdvance(part int, t Tick) {
	sh.dur.appendRecord(&durable.Record{
		Kind: durable.RecordAdvance, Part: uint64(part), Tick: t,
	})
}

func (d *durableState) appendRecord(rec *durable.Record) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.buf = durable.AppendRecord(d.buf[:0], rec)
	err := d.wal.Append(d.buf, false)
	d.mu.Unlock()
	if err != nil {
		// Ingest cannot return errors; the engine keeps applying in memory
		// with durability degraded, and surfaces the failure in stats.
		d.errs.Add(1)
	}
}

// commit ends a write call: in the sync-every mode, one sync covering every
// record the call appended (see the file comment).
func (d *durableState) commit() {
	if d != nil && d.syncEvery {
		d.syncNow()
	}
}

// syncNow makes every appended WAL record durable; commits, the Flush
// barrier and the background sync loop all land here. It syncs under mu,
// so the segment synced is the active one (a rotation syncs the sealed).
func (d *durableState) syncNow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if err := d.wal.Sync(); err != nil {
		d.errs.Add(1)
	}
}

func (sh *Sharded) durSnapshotLoop(interval time.Duration) {
	defer close(sh.dur.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sh.dur.snapStop:
			return
		case <-t.C:
			_ = sh.Checkpoint() // failures are counted in stats
		}
	}
}

func (sh *Sharded) durSyncLoop(interval time.Duration) {
	defer close(sh.dur.syncDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sh.dur.syncStop:
			return
		case <-t.C:
			sh.dur.syncNow()
		}
	}
}

func (d *durableState) stopLoops() {
	if d.snapStop != nil {
		close(d.snapStop)
		<-d.snapDone
	}
	if d.syncStop != nil {
		close(d.syncStop)
		<-d.syncDone
	}
}

// closeDurable finishes Close on a durable engine: a final checkpoint (a
// clean restart then replays nothing) and a synced shutdown of the WAL.
func (sh *Sharded) closeDurable() error {
	d := sh.dur
	d.stopLoops()
	err := sh.Checkpoint()
	d.mu.Lock()
	d.closed = true
	w := d.wal
	d.mu.Unlock()
	if serr := w.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// CloseAbrupt tears the engine down the way a crash would: background
// goroutines stop (so tests don't leak them), but nothing is flushed,
// synced or checkpointed — recovery must reconstruct the state from the
// last checkpoint plus the WAL. It exists for crash-recovery tests and
// the -recover benchmark; production shutdown is Close.
func (sh *Sharded) CloseAbrupt() error {
	sh.closeOnce.Do(func() {
		if sh.async != nil {
			sh.async.stop()
		}
		if sh.refreshStop != nil {
			close(sh.refreshStop)
			<-sh.refreshDone
		}
		if d := sh.dur; d != nil {
			d.stopLoops()
			d.mu.Lock()
			d.closed = true
			w := d.wal
			d.mu.Unlock()
			w.Close()
		}
	})
	return nil
}
