package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// Durable sessions. When Options.DataDir is set, every hosted session
// owns a directory <data-dir>/<name>/ holding generation-numbered
// snapshot/WAL pairs:
//
//	snap-<gen>.snap   full-state session snapshot (atomic tmp+rename)
//	wal-<gen>.log     batches accepted after that snapshot
//
// The session's committer goroutine — the pipeline stage downstream of
// the single-writer engine worker — appends one WAL record per
// successful engine pass (a coalesced ingest run is one pass and one
// record) *before* replying to the client, so under the per-batch fsync
// policy an acknowledged apply is on disk; the fsync itself is amortized
// across sessions by the registry's group-fsync goroutine. Every
// SnapshotEvery batches the persister rotates: it writes snapshot gen+1,
// starts an empty WAL gen+1, and deletes generations older than the
// previous one — the previous pair is kept as a fallback in case the
// newest snapshot is damaged. Recovery (Server.Recover) walks the session directories,
// restores the newest readable snapshot, and replays the WAL records
// after it through the ordinary ApplyOps path; the journal-version
// cursor carried by every record (wal.Batch) makes the replay
// idempotent across generations and detects gaps. A torn or corrupted
// WAL tail — the expected artifact of kill -9 — is detected by CRC,
// discarded, and the file truncated back to the last intact record;
// committed batches before the damage are never lost.
//
// A pass that fails *partway* (validation rejects before any mutation,
// so this is nearly impossible) leaves relation state that no WAL
// record describes; the persister resynchronizes by rotating to a fresh
// snapshot immediately, keeping the on-disk image authoritative.

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncBatch syncs after every accepted batch, before the client
	// sees the reply: an acknowledged batch survives power loss. The
	// safest and slowest policy.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.FsyncInterval): a crash
	// loses at most the last interval's batches, all of which were
	// acknowledged. The usual production trade.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS flushes on its own
	// schedule. A process kill loses nothing (the page cache survives);
	// power loss may lose recent batches.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values onto policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want batch, interval or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// persistConfig is the registry-wide durability configuration; nil on
// the Registry means persistence is off.
type persistConfig struct {
	dir       string
	policy    FsyncPolicy
	interval  time.Duration
	snapEvery int
	// kind is the node's default tuple-storage backend for new sessions
	// (-store); KindDefault/KindMem write full inline snapshots, KindDisk
	// gives each session a write-through page store whose snapshots are
	// slim headers. A create request may override per session.
	kind store.Kind
	// storeOpts tunes disk-backed sessions (-store-page, -store-cache).
	storeOpts store.Options
}

// storeDirName is the page store's subdirectory inside a session's data
// directory. It never collides with the generation files (snap-*/wal-*)
// and is pruned with the directory on destroy.
const storeDirName = "store"

// roleMarkerName is the follower-role marker inside a session's
// directory: present means the durable state belongs to a replica,
// absent means primary. The marker records the STEADY-STATE role only —
// transient flips (the quiesce window of a rebalance transfer) never
// touch it — so a restarted node re-hosts each session in the role it
// was really serving. Without it a rebooted follower would come back as
// a primary: the true primary's shipper then hits 421 and stops
// (split-brain guard), while the stale copy silently serves — the
// split brain the marker exists to prevent.
const roleMarkerName = "follower.role"

// writeRoleMarker syncs the on-disk role marker to the given role.
// Written via tmp+rename so a crash can only leave the old role or the
// new one, never a torn marker.
func writeRoleMarker(dir string, follower bool) error {
	path := filepath.Join(dir, roleMarkerName)
	if !follower {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte("follower\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readRoleMarker reports whether dir is marked as holding a follower
// replica's state.
func readRoleMarker(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, roleMarkerName))
	return err == nil
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%010d.snap", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%010d.log", gen))
}

// persister is one session's durability sidecar, driven by the
// session's committer goroutine (the pipeline stage downstream of the
// engine worker — see hosted.committer). The mutex fences the
// committer's appends against the interval-fsync ticker and the
// registry's group-fsync goroutine; all state transitions happen on the
// committer.
type persister struct {
	cfg  *persistConfig
	dir  string
	name string

	mu       sync.Mutex
	gen      uint64
	log      *wal.Log
	last     uint64 // journal version after the last logged batch
	appended uint64 // last version appended to the open log
	synced   uint64 // last version known to be on stable storage
	// sinceSnap is the rotation budget carried out of recovery (replayed
	// records already in the tip WAL); the session worker seeds its own
	// rotation counter from it and owns the count from then on.
	sinceSnap int
	broken    error // first unrecoverable persistence failure; sticky

	// st is the session's disk page store, nil for memory-backed
	// sessions. The persister owns its lifecycle: created or reopened
	// alongside the snapshot/WAL pair, closed on close(), removed with
	// the directory on destroy().
	st *store.Disk

	tick chan struct{} // closed to stop the interval-sync goroutine
}

// newPersister sets up durability for a freshly created session: its
// directory is (re)created empty, snapshot generation 0 captures the
// post-initial-cleaning state, and an empty WAL is opened. Any stale
// directory content under the same name — left by a session that could
// not be recovered — is replaced. quota is the session's quota mark
// (wal.Quota{} for inherited defaults); it rides in every snapshot
// header so explicit overrides survive recovery and ship to replicas.
//
// kind picks the tuple-storage backend: KindDefault inherits the node's
// -store configuration. A disk-backed session gets a page store seeded
// from the live relation, and its generation-0 snapshot is a slim
// header referencing store generation 0 instead of carrying every tuple
// inline.
func newPersister(cfg *persistConfig, name string, sess *increpair.Session, quota wal.Quota, kind store.Kind) (*persister, error) {
	dir := filepath.Join(cfg.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if kind == store.KindDefault {
		kind = cfg.kind
	}
	var (
		st   *store.Disk
		snap *wal.Snapshot
		err  error
	)
	if kind == store.KindDisk {
		arity := sess.Current().Schema().Arity()
		st, err = store.Create(filepath.Join(dir, storeDirName), arity, cfg.storeOpts)
		if err != nil {
			return nil, err
		}
		if err = sess.AttachStore(st, true); err != nil {
			st.Close()
			return nil, err
		}
		var fl *store.Flush
		if snap, fl, err = sess.PersistBoundary(name); err != nil {
			st.Close()
			return nil, err
		}
		snap.Quota = quota
		if err = fl.Commit(0); err != nil {
			st.Close()
			return nil, err
		}
	} else {
		if snap, err = sess.PersistSnapshot(name); err != nil {
			return nil, err
		}
		snap.Quota = quota
	}
	if err := wal.WriteSnapshotFile(snapPath(dir, 0), snap); err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	log, err := wal.Create(walPath(dir, 0))
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	p := &persister{
		cfg: cfg, dir: dir, name: name, log: log, st: st,
		last: snap.Version, appended: snap.Version, synced: snap.Version,
	}
	p.startTicker()
	return p, nil
}

func (p *persister) startTicker() {
	if p.cfg.policy != FsyncInterval {
		return
	}
	// The goroutine watches a local copy of the stop channel: stopTicker
	// nils the field afterwards, and re-reading it here would race.
	stop := make(chan struct{})
	p.tick = stop
	go func() {
		t := time.NewTicker(p.cfg.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.mu.Lock()
				p.syncLocked()
				p.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
}

// appendBatch logs one successful engine pass: delta-encode, CRC-frame
// and append, without syncing. Called by the session's committer, which
// is how the encode and the append run concurrently with the worker's
// NEXT engine pass — the WAL is off the single-writer hot path while
// record order still equals pass order (the commit channel is FIFO).
// The ops slices are the batch's original decoded inputs, which the
// engine never mutates (TUPLERESOLVE clones arriving tuples), so
// reading them here races nothing.
func (p *persister) appendBatch(ops []relation.Delta, version uint64) error {
	b := wal.Batch{PrevVersion: p.last, Version: version, Ops: ops}
	payload := b.Encode() // off-lock: overlaps the ticker and group syncer
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	if err := p.log.Append(payload); err != nil {
		p.broken = err
		return err
	}
	p.last = version
	p.appended = version
	return nil
}

// syncNow flushes the log to stable storage; the group-fsync goroutine
// calls it once per log per sync window.
func (p *persister) syncNow() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncLocked()
}

// syncLocked is the shared sync step (committer-driven group sync and
// the interval ticker): on success everything appended so far is known
// durable.
func (p *persister) syncLocked() error {
	if p.broken != nil {
		return p.broken
	}
	if p.log == nil {
		return nil
	}
	if err := p.log.Sync(); err != nil {
		p.broken = err
		return err
	}
	p.synced = p.appended
	return nil
}

// syncedVersion reports the newest journal version known to be on
// stable storage — what the group-fsync ordering test asserts against:
// under the per-batch policy no acknowledged version may exceed it.
func (p *persister) syncedVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.synced
}

// markBroken records a persistence failure discovered outside the
// persister (e.g. the worker failing to capture a rotation snapshot).
func (p *persister) markBroken(err error) {
	p.mu.Lock()
	if p.broken == nil {
		p.broken = err
	}
	p.mu.Unlock()
}

// rotateTo advances to a new snapshot/WAL generation anchored on snap
// and prunes generations older than the previous one. The snapshot is
// captured by the session WORKER at the exact batch boundary that
// triggered the rotation (not here on the committer): the worker may
// already be several passes ahead by the time this runs, and a snapshot
// taken now would be newer than the WAL cursor — the new generation's
// base must equal the last logged record's state. On any failure the
// persister marks itself broken: the session keeps serving, the
// recorded state stops advancing, and the condition surfaces through
// info().
func (p *persister) rotateTo(snap *wal.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return
	}
	next := p.gen + 1
	if err := wal.WriteSnapshotFile(snapPath(p.dir, next), snap); err != nil {
		p.broken = err
		return
	}
	log, err := wal.Create(walPath(p.dir, next))
	if err != nil {
		p.broken = err
		return
	}
	old := p.log
	p.log = log
	p.gen = next
	p.last = snap.Version
	p.appended = snap.Version
	p.synced = snap.Version // WriteSnapshotFile fsyncs file and directory
	if err := old.Close(); err != nil && p.broken == nil {
		p.broken = err
	}
	// Keep the previous generation as a fallback; drop everything older.
	if next >= 2 {
		pruneGenerations(p.dir, next-2)
	}
}

// rotationCapture is one rotation's boundary image, captured by the
// session worker at the exact batch boundary that triggered it. For a
// memory-backed session it is just the full snapshot; for a disk-backed
// session the snapshot is a slim header and flush holds the dirty pages
// to commit under the new generation. Exactly one of rotate/abort must
// consume it.
type rotationCapture struct {
	snap  *wal.Snapshot
	flush *store.Flush
}

// abort releases an unconsumed capture (purge raced in, the WAL append
// failed, the persister broke): the flush's pinned view and pages are
// handed back so the next rotation carries them.
func (rc *rotationCapture) abort() {
	if rc != nil && rc.flush != nil {
		rc.flush.Abort()
	}
}

// rotateCapture advances to the next generation from a worker-captured
// boundary. Disk-backed sessions commit the page flush first — the
// store's manifest for generation N is durable before the slim snapshot
// that references it — so a crash between the two leaves a readable
// previous generation, never a snapshot pointing at missing pages.
func (p *persister) rotateCapture(rc *rotationCapture) {
	p.mu.Lock()
	if p.broken != nil {
		p.mu.Unlock()
		rc.abort()
		return
	}
	next := p.gen + 1
	p.mu.Unlock()
	if rc.flush != nil {
		// Store generations track snapshot generations one-to-one; the
		// flush commit is the store's own atomic step (manifest rename).
		if err := rc.flush.Commit(next); err != nil {
			p.markBroken(err)
			return
		}
		rc.snap.StoreGen = next
	}
	p.rotateTo(rc.snap)
}

// pruneGenerations removes snapshot and WAL files of generations <= max.
func pruneGenerations(dir string, max uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		gen, kind, ok := parseGenName(e.Name())
		if ok && kind != "" && gen <= max {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// parseGenName splits "snap-0000000001.snap" / "wal-0000000001.log"
// into (generation, kind); ok is false for anything else (including the
// .tmp siblings of in-flight snapshot writes).
func parseGenName(name string) (gen uint64, kind string, ok bool) {
	switch {
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		kind = "snap"
		name = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		kind = "wal"
		name = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	default:
		return 0, "", false
	}
	gen, err := strconv.ParseUint(name, 10, 64)
	if err != nil {
		return 0, "", false
	}
	return gen, kind, true
}

// close ends persistence gracefully (drain/shutdown): sync, close, keep
// the data for the next boot.
func (p *persister) close() {
	p.stopTicker()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil {
		if err := p.log.Close(); err != nil && p.broken == nil {
			p.broken = err
		}
		p.log = nil
	}
	if p.st != nil {
		p.st.Close()
		p.st = nil
	}
}

// destroy ends persistence and deletes the session's directory — the
// durable counterpart of DELETE /v1/sessions/{name}: a removed session
// must not resurrect on the next boot.
func (p *persister) destroy() {
	p.stopTicker()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil {
		p.log.Close()
		p.log = nil
	}
	if p.st != nil {
		p.st.Close()
		p.st = nil
	}
	os.RemoveAll(p.dir)
}

func (p *persister) stopTicker() {
	if p.tick != nil {
		close(p.tick)
		p.tick = nil
	}
}

// storeStats reports the page store's stats, or nil for memory-backed
// (or closed) sessions; session listings and /metrics render it.
func (p *persister) storeStats() *store.Stats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	st := p.st
	p.mu.Unlock()
	if st == nil {
		return nil
	}
	s := st.Stats()
	return &s
}

// status renders the persistence state for session listings.
func (p *persister) status() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return "error: " + p.broken.Error()
	}
	return "ok"
}

// restorePaged rebuilds a disk-backed session from a slim snapshot
// header: open the page store at the referenced generation, stream its
// rows in the persisted physical order (with the persisted intern
// dictionary preloaded so every ValueID reproduces exactly), and
// re-attach the store so the WAL replay that follows writes through
// again. No relation-sized snapshot record is ever decoded — recovery
// reads the order file once and only the pages it names.
func restorePaged(cfg *persistConfig, dir, name string, snap *wal.Snapshot, workers int) (*increpair.Session, error) {
	st, err := store.Open(filepath.Join(dir, storeDirName), snap.StoreGen, len(snap.Attrs), cfg.storeOpts)
	if err != nil {
		return nil, fmt.Errorf("server: recover %s: store gen %d: %w", name, snap.StoreGen, err)
	}
	src, err := st.Source()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("server: recover %s: store gen %d: %w", name, snap.StoreGen, err)
	}
	sess, err := increpair.RestoreFromSnapshotSource(snap, src, workers, st.Strings())
	src.Close()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("server: recover %s: store gen %d: %w", name, snap.StoreGen, err)
	}
	if err := sess.AttachStore(st, false); err != nil {
		sess.Close()
		st.Close()
		return nil, err
	}
	return sess, nil
}

// recoverSession rebuilds one session from its directory: newest
// readable snapshot generation first, then WAL replay across that and
// any later generations. It returns the restored session plus a
// persister positioned to continue appending, and the quota mark read
// from the chosen snapshot (Set only for explicit per-session
// overrides). warn, when non-nil,
// reports acknowledged records that could NOT be replayed — payload
// corruption mid-log or a gap between generations — after which the
// session still serves, re-anchored on the recovered prefix; the
// operator must hear about the dropped suffix. (A torn *tail* in the
// newest log is not warned: those bytes never completed their append,
// so nothing acknowledged is behind them.) workers > 0 overrides the
// persisted per-session engine worker count.
func recoverSession(cfg *persistConfig, name string, workers int) (*increpair.Session, *persister, wal.Quota, error, error) {
	dir := filepath.Join(cfg.dir, name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, wal.Quota{}, nil, err
	}
	var snapGens, walGens []uint64
	for _, e := range ents {
		gen, kind, ok := parseGenName(e.Name())
		if !ok {
			continue
		}
		if kind == "snap" {
			snapGens = append(snapGens, gen)
		} else {
			walGens = append(walGens, gen)
		}
	}
	if len(snapGens) == 0 {
		return nil, nil, wal.Quota{}, nil, fmt.Errorf("server: recover %s: no snapshot found", name)
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	var (
		sess    *increpair.Session
		baseGen uint64
		quota   wal.Quota
		lastErr error
	)
	for _, g := range snapGens {
		snap, err := wal.ReadSnapshotFile(snapPath(dir, g))
		if err != nil {
			lastErr = err
			continue
		}
		if snap.Name != "" && snap.Name != name {
			lastErr = fmt.Errorf("server: recover %s: snapshot names session %q", name, snap.Name)
			continue
		}
		var s *increpair.Session
		if snap.StoreKind == wal.StorePaged {
			// Slim header: the rows live in the page store at the
			// referenced generation. Any store damage fails THIS
			// generation only — the loop falls back to the previous
			// snapshot, exactly as for a corrupt snapshot file.
			s, err = restorePaged(cfg, dir, name, snap, workers)
		} else {
			s, err = increpair.RestoreFromSnapshot(snap, workers)
		}
		if err != nil {
			lastErr = err
			continue
		}
		sess, baseGen, quota = s, g, snap.Quota
		break
	}
	if sess == nil {
		return nil, nil, wal.Quota{}, nil, fmt.Errorf("server: recover %s: no usable snapshot: %w", name, lastErr)
	}

	// Replay the logs from the restored generation forward. The version
	// cursor skips records already contained in the snapshot, so replay
	// is correct even when the chosen snapshot is newer than a log's
	// records (or older, after a fallback to the previous generation).
	var (
		tip      *wal.Log // open log of the newest generation, append-ready
		damaged  bool
		warn     error
		replayed int // records applied into the tip generation's session
	)
	for i, g := range walGens {
		if g < baseGen {
			continue
		}
		last := i == len(walGens)-1
		log, payloads, discarded, err := wal.Open(walPath(dir, g))
		if err != nil {
			damaged = true
			warn = fmt.Errorf("server: recover %s: wal generation %d unreadable (%w); later records discarded", name, g, err)
			break
		}
		if discarded > 0 {
			damaged = true
			if !last {
				// Tail damage in a non-final generation is a hole:
				// the next generation's records cannot chain onto it.
				warn = fmt.Errorf("server: recover %s: wal generation %d has a damaged tail (%d bytes) with later generations present; those are discarded", name, g, discarded)
			}
		}
		replayFailed := false
		replayed = 0
		for ri, payload := range payloads {
			b, derr := wal.DecodeBatch(payload)
			if derr == nil {
				var applied bool
				if applied, derr = sess.ReplayBatch(b); derr == nil {
					if applied {
						replayed++
					}
					continue
				}
			}
			// Payload-level damage: everything from here on is
			// untrusted, in this and any later generation — and unlike
			// a torn tail these records WERE acknowledged, so say so.
			replayFailed = true
			warn = fmt.Errorf("server: recover %s: wal generation %d record %d does not replay (%w); this and later acknowledged records are discarded", name, g, ri, derr)
			break
		}
		if replayFailed {
			log.Close()
			damaged = true
			break
		}
		if last && !damaged {
			tip = log // keep the handle: appends continue here
		} else {
			log.Close()
		}
	}

	v := sess.Snapshot().Version
	p := &persister{cfg: cfg, dir: dir, name: name, st: sess.Store(), last: v, appended: v, synced: v}
	if tip != nil {
		p.gen = walGens[len(walGens)-1]
		p.log = tip
		// Count the replayed records against the rotation budget: a
		// server that crash-loops just under SnapshotEvery fresh
		// batches per life must still rotate, or the tip WAL (and
		// every boot's replay) would grow without bound.
		p.sinceSnap = replayed
		p.startTicker()
		return sess, p, quota, warn, nil
	}
	// No appendable tip (damage, or the newest WAL is missing): start a
	// fresh generation whose snapshot captures the recovered state.
	next := uint64(0)
	if len(walGens) > 0 && walGens[len(walGens)-1] >= snapGens[0] {
		next = walGens[len(walGens)-1] + 1
	} else {
		next = snapGens[0] + 1
	}
	// closeRecovered releases everything the failed re-anchor opened:
	// the session, and the page store it may have re-attached.
	closeRecovered := func() {
		sess.Close()
		if st := sess.Store(); st != nil {
			st.Close()
		}
	}
	var snap *wal.Snapshot
	if sess.Store() != nil {
		// Disk-backed re-anchor: commit the replay's dirty pages as store
		// generation next, then write the slim snapshot referencing it.
		snap2, fl, berr := sess.PersistBoundary(name)
		if berr == nil {
			if berr = fl.Commit(next); berr == nil {
				snap2.StoreGen = next
			}
		}
		if berr != nil {
			closeRecovered()
			return nil, nil, wal.Quota{}, nil, berr
		}
		snap = snap2
	} else {
		var perr error
		if snap, perr = sess.PersistSnapshot(name); perr != nil {
			closeRecovered()
			return nil, nil, wal.Quota{}, nil, perr
		}
	}
	snap.Quota = quota // the override survives the re-anchoring rotation
	if err := wal.WriteSnapshotFile(snapPath(dir, next), snap); err != nil {
		closeRecovered()
		return nil, nil, wal.Quota{}, nil, err
	}
	log, err := wal.Create(walPath(dir, next))
	if err != nil {
		closeRecovered()
		return nil, nil, wal.Quota{}, nil, err
	}
	p.gen = next
	p.log = log
	p.last = snap.Version
	p.appended = snap.Version
	p.synced = snap.Version
	if next >= 2 {
		pruneGenerations(p.dir, next-2)
	}
	p.startTicker()
	return sess, p, quota, warn, nil
}

// Recover scans Options.DataDir and re-hosts every persisted session.
// It must run before the server accepts traffic. Sessions that cannot
// be recovered at all are skipped, and sessions recovered with
// acknowledged records discarded (mid-log corruption, generation gaps)
// still come up but are reported — both land in the joined error, so
// one corrupt tenant never keeps the rest offline and the operator
// still hears about every dropped batch. Unrecoverable directories are
// left untouched for inspection (creating a session under the same
// name replaces them).
func (s *Server) Recover() (restored int, err error) {
	cfg := s.reg.persist
	if cfg == nil {
		return 0, nil
	}
	ents, readErr := os.ReadDir(cfg.dir)
	if readErr != nil {
		if errors.Is(readErr, os.ErrNotExist) {
			return 0, nil
		}
		return 0, readErr
	}
	var errs []error
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		sess, p, wq, warn, rerr := recoverSession(cfg, name, 0)
		if rerr != nil {
			errs = append(errs, rerr)
			continue
		}
		if warn != nil {
			errs = append(errs, warn)
		}
		// An explicit per-session override persisted in the snapshot
		// beats the boot-time defaults; inherited quotas re-resolve.
		quota := s.reg.quota
		if wq.Set {
			quota = quotaFromWAL(wq)
		}
		// A session whose directory carries the follower marker was a
		// replica when this node went down; re-host it as one, so the
		// true primary's shipping stream resumes (healing any missed
		// batches by gap-detected resync) instead of hitting a phantom
		// primary and stopping. On a node rebooted WITHOUT peers the
		// marker is ignored — and cleared by register — because a follower
		// with no cluster would refuse writes forever.
		role := rolePrimary
		if s.reg.cluster != nil && readRoleMarker(filepath.Join(cfg.dir, name)) {
			role = roleFollower
		}
		if _, cerr := s.reg.register(name, sess, sess.Current().Schema(), hostSpec{pers: p, quota: quota, role: role}); cerr != nil {
			p.close()
			sess.Close()
			errs = append(errs, fmt.Errorf("server: recover %s: %w", name, cerr))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}
