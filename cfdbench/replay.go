package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// replayDump applies a session's batches in process — NewSession over
// the same base, then one ApplyOps per batch, the calls the server's
// worker makes — and returns the final dump the served session must
// match byte for byte.
func replayDump(si *sessionInput) ([]byte, error) {
	base, sigma, err := sigmaFor(si)
	if err != nil {
		return nil, err
	}
	sess, err := increpair.NewSession(base, sigma, &increpair.Options{Ordering: increpair.Linear})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	for _, b := range si.batches {
		if _, _, err := sess.ApplyOps(nil, nil, cloneBatch(b)); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	err = sess.Dump(&buf)
	return buf.Bytes(), err
}

func cloneBatch(b []*relation.Tuple) []*relation.Tuple {
	out := make([]*relation.Tuple, len(b))
	for i, t := range b {
		out[i] = t.Clone()
	}
	return out
}

// layerResult holds the traced replay's per-layer observations.
type layerResult struct {
	readCSV                []float64 // seconds
	insertBare, insertVio  time.Duration
	insertN                int
	vioBuild, detect       time.Duration
	violations, components int
	sessionOpen            time.Duration
	applyLat               []time.Duration
	applyMallocs           uint64
	dirtyTuples, changes   int
	walEncode, walAppend   []time.Duration
	walSync                []time.Duration
	walBytes               int64
	snapEncode, snapWrite  []time.Duration
	snapBytes              []int
	restore, replay        time.Duration
	viewRowsPerS           []float64
	storeFlush             []time.Duration
	storeBytes             []int64
	csvLen                 int // CSV bytes of the replayed arriving tuples
}

// layerBatches caps the batches the traced replay takes from the
// session's stream: every batch of stream-repair's and batch-clean's
// tenants, and ingest-dump's first 480 of 1,200, which cross two
// snapshot rotations.
const layerBatches = 480

// replayLayers replays one session's inputs (its first layerBatches
// batches) through each layer's public functions, one span per call:
// relation inserts bare and with a violation store subscribed,
// detection, the session's engine passes, the WAL path the server's
// committer takes (batch encode, append, fsync, snapshot rotation every
// snapEvery batches), restore plus replay of the last generation, a
// pinned-view dump, and the disk store mirroring the same stream at the
// same rotation points.
func replayLayers(dir string, si *sessionInput, setupCSV []byte, snapEvery int, tr *tracer, tl *tally) *layerResult {
	lr := &layerResult{}
	batches := si.batches[:min(len(si.batches), layerBatches)]
	fail := func(err error) *layerResult {
		tl.op(err)
		return lr
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	for r := 0; r < 5; r++ {
		id := tr.begin("relation", "ReadCSV", 0)
		t0 := time.Now()
		_, err := relation.ReadCSV("setup", bytes.NewReader(setupCSV))
		lr.readCSV = append(lr.readCSV, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return fail(err)
		}
	}

	// relation and cfd: the stream inserted raw, without repair.
	bare, sigma, err := sigmaFor(si)
	if err != nil {
		return fail(err)
	}
	lr.csvLen = csvBytes(bare.Schema(), batches)
	// Further copies of the base parse the same input, which just parsed.
	withStore, _, _ := sigmaFor(si)
	id := tr.begin("cfd", "NewVioStore", 0)
	t0 := time.Now()
	vs := cfd.NewVioStore(withStore, sigma)
	lr.vioBuild = time.Since(t0)
	tr.end(id)
	for _, b := range batches {
		for _, t := range b {
			id := tr.begin("relation", "Insert", 0)
			t0 := time.Now()
			err := bare.Insert(t.Clone())
			lr.insertBare += time.Since(t0)
			tr.end(id)
			if err != nil {
				return fail(err)
			}
			id = tr.begin("cfd", "Insert+VioStore", 0)
			t0 = time.Now()
			err = withStore.Insert(t.Clone())
			lr.insertVio += time.Since(t0)
			tr.end(id)
			if err != nil {
				return fail(err)
			}
			lr.insertN++
		}
	}
	lr.components = len(vs.Components())
	vs.Close()
	id = tr.begin("cfd", "Detect", 0)
	t0 = time.Now()
	lr.violations = len(cfd.NewDetector(bare, sigma).Detect())
	lr.detect = time.Since(t0)
	tr.end(id)

	// increpair + wal: the session's passes and the committer's log.
	base, _, _ := sigmaFor(si)
	id = tr.begin("increpair", "NewSession", 0)
	t0 = time.Now()
	sess, err := increpair.NewSession(base, sigma, &increpair.Options{Ordering: increpair.Linear})
	lr.sessionOpen = time.Since(t0)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	defer sess.Close()
	mirrorBase, _, _ := sigmaFor(si)
	mirror, err := increpair.NewSession(mirrorBase, sigma, &increpair.Options{Ordering: increpair.Linear})
	if err != nil {
		return fail(err)
	}
	defer mirror.Close()
	st, err := store.Create(filepath.Join(dir, "store"), mirrorBase.Schema().Arity(), store.Options{})
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	if err := mirror.AttachStore(st, true); err != nil {
		return fail(err)
	}

	// Generation 0 is written at create, as the server does; rotations
	// follow every snapEvery batches.
	var gen uint64
	snapFile, err := lr.rotate(dir, 0, si.name, sess, mirror, st, tr)
	if err != nil {
		return fail(err)
	}
	logPath := filepath.Join(dir, "wal-0.log")
	log, err := wal.Create(logPath)
	if err != nil {
		return fail(err)
	}
	prev := sess.Snapshot().Version
	var before, after runtime.MemStats
	for bi, b := range batches {
		in := cloneBatch(b)
		runtime.ReadMemStats(&before)
		id := tr.begin("increpair", "ApplyOps", 0)
		t0 := time.Now()
		res, _, err := sess.ApplyOps(nil, nil, in)
		lr.applyLat = append(lr.applyLat, time.Since(t0))
		tr.end(id)
		runtime.ReadMemStats(&after)
		if err != nil {
			log.Close()
			return fail(err)
		}
		lr.applyMallocs += after.Mallocs - before.Mallocs
		lr.changes += res.Changes
		for i, t := range res.Inserted {
			if !relation.StrictEqVals(t.Vals, res.Originals[i].Vals) {
				lr.dirtyTuples++
			}
		}
		if _, _, err := mirror.ApplyOps(nil, nil, cloneBatch(b)); err != nil {
			log.Close()
			return fail(err)
		}

		version := sess.Snapshot().Version
		wb := wal.Batch{PrevVersion: prev, Version: version, Ops: increpair.OpsToDeltas(nil, nil, in)}
		prev = version
		id = tr.begin("wal", "Batch.Encode", 0)
		t0 = time.Now()
		payload := wb.Encode()
		lr.walEncode = append(lr.walEncode, time.Since(t0))
		tr.end(id)
		id = tr.begin("wal", "Log.Append", 0)
		t0 = time.Now()
		err = log.Append(payload)
		lr.walAppend = append(lr.walAppend, time.Since(t0))
		tr.end(id)
		if err != nil {
			log.Close()
			return fail(err)
		}
		id = tr.begin("wal", "Log.Sync", 0)
		t0 = time.Now()
		err = log.Sync()
		lr.walSync = append(lr.walSync, time.Since(t0))
		tr.end(id)
		if err != nil {
			log.Close()
			return fail(err)
		}

		if (bi+1)%snapEvery != 0 || bi+1 == len(batches) {
			continue
		}
		// Rotation, as the server's worker and committer do it.
		gen++
		if snapFile, err = lr.rotate(dir, gen, si.name, sess, mirror, st, tr); err != nil {
			log.Close()
			return fail(err)
		}
		if err := log.Close(); err != nil {
			return fail(err)
		}
		lr.walBytes += fileSize(logPath)
		logPath = filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
		if log, err = wal.Create(logPath); err != nil {
			return fail(err)
		}
	}
	if err := log.Close(); err != nil {
		return fail(err)
	}
	lr.walBytes += fileSize(logPath)

	// Restore the newest snapshot and replay the log after it; the
	// result must dump exactly as the live session does.
	id = tr.begin("wal", "ReadSnapshotFile", 0)
	t0 = time.Now()
	rsnap, err := wal.ReadSnapshotFile(snapFile)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	id = tr.begin("increpair", "RestoreFromSnapshot", 0)
	restored, err := increpair.RestoreFromSnapshot(rsnap, 0)
	lr.restore = time.Since(t0)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	defer restored.Close()
	t0 = time.Now()
	rlog, payloads, _, err := wal.Open(logPath)
	if err != nil {
		return fail(err)
	}
	rlog.Close()
	for _, p := range payloads {
		b, err := wal.DecodeBatch(p)
		if err != nil {
			return fail(err)
		}
		id := tr.begin("increpair", "ReplayBatch", 0)
		_, err = restored.ReplayBatch(b)
		tr.end(id)
		if err != nil {
			return fail(err)
		}
	}
	lr.replay = time.Since(t0)
	var live, back bytes.Buffer
	if tl.op(sess.Dump(&live)) != nil || tl.op(restored.Dump(&back)) != nil {
		return lr
	}
	tl.check(bytes.Equal(live.Bytes(), back.Bytes()), "session %s: restored+replayed dump differs from the live session", si.name)

	// A pinned read view streamed as CSV.
	for r := 0; r < 3; r++ {
		id := tr.begin("increpair", "ReadView", 0)
		rv, err := sess.ReadView()
		tr.end(id)
		if err != nil {
			return fail(err)
		}
		id = tr.begin("relation", "View.WriteCSV", 0)
		t0 := time.Now()
		err = rv.WriteCSV(io.Discard)
		el := time.Since(t0)
		tr.end(id)
		rows := rv.Len()
		rv.Release()
		if err != nil {
			return fail(err)
		}
		lr.viewRowsPerS = append(lr.viewRowsPerS, float64(rows)/el.Seconds())
	}
	return lr
}

// rotate captures generation gen at the current batch boundary: the
// session's full snapshot encoded and written as the memory backend's
// committer does, and the mirror's disk store flushed and committed as
// the disk backend's would be. It returns the snapshot's path.
func (lr *layerResult) rotate(dir string, gen uint64, name string, sess, mirror *increpair.Session, st *store.Disk, tr *tracer) (string, error) {
	id := tr.begin("increpair", "PersistSnapshot", 0)
	snap, err := sess.PersistSnapshot(name)
	tr.end(id)
	if err != nil {
		return "", err
	}
	id = tr.begin("wal", "Snapshot.Encode", 0)
	t0 := time.Now()
	enc := snap.Encode()
	lr.snapEncode = append(lr.snapEncode, time.Since(t0))
	tr.end(id)
	lr.snapBytes = append(lr.snapBytes, len(enc))
	path := filepath.Join(dir, fmt.Sprintf("snap-%d.snap", gen))
	id = tr.begin("wal", "WriteSnapshotFile", 0)
	t0 = time.Now()
	err = wal.WriteSnapshotFile(path, snap)
	lr.snapWrite = append(lr.snapWrite, time.Since(t0))
	tr.end(id)
	if err != nil {
		return "", err
	}

	before := st.Stats().DiskBytes
	id = tr.begin("store", "PersistBoundary+Commit", 0)
	t0 = time.Now()
	_, fl, err := mirror.PersistBoundary(name)
	if err == nil {
		err = fl.Commit(gen)
	}
	lr.storeFlush = append(lr.storeFlush, time.Since(t0))
	tr.end(id)
	lr.storeBytes = append(lr.storeBytes, st.Stats().DiskBytes-before)
	return path, err
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}
