package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cfdclean/internal/increpair"
	"cfdclean/internal/wal"
)

// Follower-side replication: the registry half of the WAL-shipping
// stream (see internal/cluster/ship for the wire and the primary half).
// A follower session is an ordinary hosted session whose worker and
// committer sit idle: state advances only through ReplicateBatch, under
// the same journal-version discipline WAL replay uses, so a promoted
// follower is byte-identical to a primary that was never lost. The
// follower keeps its own persister in lockstep — every shipped batch is
// appended to the replica's local WAL before acknowledgement — which is
// what lets promotion simply resume the log as its own.

// Replication errors mapped by the handler layer.
var (
	// errReplicaConflict reports a replication message for a session this
	// node hosts as a primary — mapped to 421; the shipper stops rather
	// than resync (split-brain guard).
	errReplicaConflict = errors.New("server: session is primary on this node")
	// errReplicaGap reports a shipped batch that cannot chain onto the
	// replica's journal version — mapped to 409, which the primary heals
	// by reshipping a snapshot.
	errReplicaGap = errors.New("server: replica gap")
)

// InstallReplica installs (or replaces) a follower session from a
// shipped snapshot — the bootstrap for a follower joining mid-stream and
// the healing move after any gap. An existing follower under the name is
// torn down and rebuilt from the image; a primary under the name refuses
// with errReplicaConflict.
func (r *Registry) InstallReplica(name string, snap *wal.Snapshot) error {
	if r.draining.Load() {
		return ErrDraining
	}
	r.installMu.Lock()
	defer r.installMu.Unlock()
	if h, err := r.Get(name); err == nil {
		if h.role.Load() != roleFollower {
			return errReplicaConflict
		}
		// Replace: free the name, stop the old replica's goroutines and
		// wait them out. The old persister keeps its files; register
		// below rebuilds the directory from the new image.
		sh := r.shard(name)
		sh.mu.Lock()
		if sh.m[name] == h {
			delete(sh.m, name)
		}
		sh.mu.Unlock()
		h.quitOnce.Do(func() { close(h.quit) })
		<-h.done
	}
	sess, err := increpair.RestoreFromSnapshot(snap, 0)
	if err != nil {
		return fmt.Errorf("server: install replica %s: %w", name, err)
	}
	// An explicit quota override travels in the snapshot header; without
	// one the replica runs this node's defaults (it only matters after
	// promotion — followers take no writes).
	quota := r.quota
	if snap.Quota.Set {
		quota = quotaFromWAL(snap.Quota)
	}
	if _, err := r.register(name, sess, sess.Current().Schema(), hostSpec{quota: quota, role: roleFollower}); err != nil {
		sess.Close()
		return err
	}
	return nil
}

// ReplicateBatch applies one shipped batch to the follower session under
// the replay discipline: duplicates are skipped, a gap refuses with
// errReplicaGap and leaves the replica untouched — a batch never applies
// out of order. On success the batch is appended to the replica's own
// WAL (group-fsynced under the per-batch policy) and the same pass event
// a primary would publish goes out to this node's SSE subscribers.
func (r *Registry) ReplicateBatch(name string, b *wal.Batch) error {
	h, err := r.Get(name)
	if err != nil {
		return err
	}
	h.replMu.Lock()
	defer h.replMu.Unlock()
	if h.role.Load() != roleFollower {
		return errReplicaConflict
	}
	res, deleted, applied, err := h.sess.ReplayBatchResult(b)
	if err != nil {
		if errors.Is(err, increpair.ErrReplayGap) {
			return fmt.Errorf("%w: %v", errReplicaGap, err)
		}
		// Any other replay failure (undecodable ops, divergence) heals
		// the same way a gap does: the primary reships a full image.
		return fmt.Errorf("%w: %v", errReplicaGap, err)
	}
	if !applied {
		return nil // duplicate frame; the cursor already covers it
	}
	r.replicaApplied.Add(1)
	if h.pers != nil && !h.purge.Load() {
		if aerr := h.pers.appendBatch(b.Ops, b.Version); aerr == nil {
			if h.pers.cfg.policy == FsyncBatch {
				_ = r.groupSync(h.pers)
			}
			h.replSince++
			if h.replSince >= h.pers.cfg.snapEvery {
				if rc, serr := h.captureRotation(); serr != nil {
					h.pers.markBroken(serr)
				} else {
					h.pers.rotateCapture(rc)
					h.replSince = 0
				}
			}
		}
	}
	// The replica's read plane is live: publish the pass event exactly as
	// the primary's committer would, so SSE consumers on the follower see
	// the same stream (seq continues across promotion).
	snap := h.sess.Snapshot()
	h.subs.publish(Event{
		Session:   h.name,
		Seq:       h.seq.Add(1),
		Coalesced: 1,
		Inserted:  len(res.Inserted),
		Deleted:   deleted,
		Dirty:     changedCells(res, h.attrs),
		Snapshot:  encodeSnapshot(snap),
	})
	return nil
}

// Promote flips a follower session to primary: writes are accepted from
// the next request on, and the session's WAL — kept in lockstep while
// following — continues as its own. Idempotent: promoting a primary is a
// no-op. Re-establishing replication toward a new follower is the ring's
// business: after a failover promotion the old primary is presumed dead,
// and a two-node cluster has no third peer to ship to, so a shipper is
// started only when the updated peer list (PUT /v1/cluster/peers) or the
// ring already names this node the session's owner with a live follower.
func (r *Registry) Promote(name string) (*hosted, error) {
	h, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	h.replMu.Lock()
	defer h.replMu.Unlock()
	if h.role.CompareAndSwap(roleFollower, rolePrimary) {
		// The durable role flips with the live one: a promoted session
		// restarting must come back a primary, not re-demote itself.
		if h.pers != nil {
			if err := writeRoleMarker(h.pers.dir, false); err != nil {
				h.pers.markBroken(err)
			}
		}
		if c := r.cluster; c != nil {
			// Ship onward only when the ring says this node owns the
			// session (a rebalance transfer): the target is then the
			// ring follower, which is neither self nor a dead peer.
			if c.primary(name) == c.self {
				if target := c.shipTarget(name); target != "" {
					h.startShipper(c, target)
				}
			}
		}
	}
	return h, nil
}

// DropReplica removes a follower session from this node — the cleanup
// path when the primary deletes the session or a rebalance moves its
// replica elsewhere. Refuses for primaries: deleting live state needs
// the ordinary DELETE, routed to the owner.
func (r *Registry) DropReplica(ctx context.Context, name string) error {
	h, err := r.Get(name)
	if err != nil {
		return err
	}
	if h.role.Load() != roleFollower {
		return errReplicaConflict
	}
	return r.Remove(ctx, name)
}

// waitQuiesce blocks until h's pipeline is provably empty — every job
// accepted before the call is applied AND committed — or the deadline
// passes. Used by rebalance after flipping a primary to follower: new
// writes are already refused, so once the pipeline drains the session
// is quiescent and the transfer snapshot captured next misses nothing
// acknowledged.
//
// Quiescence is positive, not inferred: a quiesce sentinel job rides
// the FIFO queue and the FIFO commits channel, so its reply proves the
// drain. Polling len(queue)+len(commits) cannot — a 202-accepted ingest
// the worker dequeued and parked in the coalesce linger (configurable
// far beyond any settle delay) is in neither channel, and a snapshot
// captured across it would silently lose the batch when the local
// session is purged after transfer. The sentinel, being non-coalescable,
// also flushes any lingering fold before it is answered. A straggler
// write that slipped past the role flip re-arms the loop: the sentinel
// is resent until both channels are empty at acknowledgement time.
func (h *hosted) waitQuiesce(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		j := job{quiesce: true, reply: make(chan jobReply, 1)}
		select {
		case h.queue <- j:
		case <-h.quit:
			return false
		case <-time.After(time.Until(deadline)):
			return false
		}
		select {
		case <-j.reply:
		case <-h.done:
			return false
		case <-time.After(time.Until(deadline)):
			return false
		}
		if len(h.queue) == 0 && len(h.commits) == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
