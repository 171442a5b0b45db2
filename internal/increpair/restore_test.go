package increpair

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// streamRestoreDumps drives a stream of the stream-repair shape (a 5k
// clean order base, 8% noise, the dirty orders arriving two at a time;
// the first 100 batches, Linear ordering) through a live session. After
// batch 64 it restores a second session from the live one's snapshot and
// feeds it the rest of the stream too. It returns both final dumps.
func streamRestoreDumps(t *testing.T, seed int64) (live, restored []byte) {
	t.Helper()
	const batches, snapAfter = 100, 64
	ds, err := gen.New(gen.Config{Size: 5000, NoiseRate: 0.08, ConstShare: 0.5, Weights: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	deltas, _ := ds.StreamBatches(len(ds.DirtyIDs) / 2)
	if len(deltas) < batches {
		t.Fatalf("seed %d: stream has %d batches, want %d", seed, len(deltas), batches)
	}
	deltas = deltas[:batches]

	// Base and Σ go through their text formats, as a server builds them
	// from a create request.
	var csvBuf, cfdBuf bytes.Buffer
	if err := relation.WriteCSV(ds.Opt, &csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := cfd.Format(&cfdBuf, ds.CFDs); err != nil {
		t.Fatal(err)
	}
	base, err := relation.ReadCSV("orders", &csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := cfd.Parse(base.Schema(), &cfdBuf)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewSession(base, cfd.NormalizeAll(parsed), &Options{Ordering: Linear})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// arriving clones a batch with ids zeroed: the session assigns
	// arrival-order ids.
	arriving := func(b []*relation.Tuple) []*relation.Tuple {
		out := make([]*relation.Tuple, len(b))
		for i, tp := range b {
			out[i] = tp.Clone()
			out[i].ID = 0
		}
		return out
	}
	var rs *Session
	for i, b := range deltas {
		if _, _, err := ls.ApplyOps(nil, nil, arriving(b)); err != nil {
			t.Fatalf("seed %d: live batch %d: %v", seed, i+1, err)
		}
		if rs != nil {
			if _, _, err := rs.ApplyOps(nil, nil, arriving(b)); err != nil {
				t.Fatalf("seed %d: restored batch %d: %v", seed, i+1, err)
			}
		}
		if i+1 == snapAfter {
			var snapBuf bytes.Buffer
			if err := ls.Persist("orders", &snapBuf); err != nil {
				t.Fatal(err)
			}
			snap, err := wal.ReadSnapshot(&snapBuf)
			if err != nil {
				t.Fatal(err)
			}
			if rs, err = RestoreFromSnapshot(snap, 0); err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
		}
	}
	var lb, rb bytes.Buffer
	if err := ls.Dump(&lb); err != nil {
		t.Fatal(err)
	}
	if err := rs.Dump(&rb); err != nil {
		t.Fatal(err)
	}
	return lb.Bytes(), rb.Bytes()
}

// TestMidStreamRestoreMatchesLive: a session restored from a snapshot
// taken in the middle of a stream must repair the rest of the stream
// exactly as the live session does. On these seeds it does only if the
// cost-based index a restored session rebuilds from its domain answers
// exactly as the one the live session grew value by value.
func TestMidStreamRestoreMatchesLive(t *testing.T) {
	for _, seed := range []int64{1250030, 1050021, 1450011} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			live, restored := streamRestoreDumps(t, seed)
			if !bytes.Equal(live, restored) {
				t.Fatalf("restored session dumps %d bytes unlike the live session's %d", len(restored), len(live))
			}
		})
	}
}

// TestRestoreScan is the in-process restore scan: the stream-repair
// benchmark's sessions for seeds 10–14, rounds 0–4 and both tenants (50
// streams), each restored mid-stream and compared with its live
// session. It takes about two minutes, so it runs only on request:
//
//	CFDCLEAN_RESTORE_SCAN=1 go test ./internal/increpair -run TestRestoreScan -v
func TestRestoreScan(t *testing.T) {
	if os.Getenv("CFDCLEAN_RESTORE_SCAN") == "" {
		t.Skip("set CFDCLEAN_RESTORE_SCAN=1 to run the restore scan")
	}
	diverged := 0
	for seed := int64(10); seed <= 14; seed++ {
		for round := int64(0); round < 5; round++ {
			for tenant := int64(0); tenant < 2; tenant++ {
				// The benchmark's session sub-seed (cfdbench sessionSeed).
				sub := seed*100000 + 50000 + 10*round + tenant
				live, restored := streamRestoreDumps(t, sub)
				if !bytes.Equal(live, restored) {
					diverged++
					t.Logf("seed %d round %d tenant %d (sub-seed %d) diverges", seed, round, tenant, sub)
				}
			}
		}
	}
	t.Logf("%d of 50 restored sessions diverge", diverged)
	if diverged > 0 {
		t.Fail()
	}
}
