package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
	"cfdclean/internal/server"
)

// spec is one workload. Every workload runs an offline stage and a
// service stage, interleaved so both sample the whole run, and so every
// end-to-end metric is measured on every workload; what differs is the
// input shape, which decides the stage and layers where the time goes
// (see README.md). The amount of work is fixed by --seconds, never by
// the clock, so the same seed and --seconds give the same inputs and
// the same deterministic outputs.
type spec struct {
	// setupOffline makes setup_s the offline stage's ReadCSV of the dirty
	// database; otherwise it is server start plus session creation.
	setupOffline bool
	service      serviceSpec
	// sessions generates round r's tenants.
	sessions func(seed int64, r int, sc scale) ([]*sessionInput, error)
}

type serviceSpec struct {
	// share of --seconds the service rounds are sized to fill, at about
	// roundSecs of wall time per round (input generation, replays and
	// recoveries included); at least one round always runs.
	share       float64
	roundSecs   float64
	setupReps   int  // set-ups timed per round (the last one is kept)
	snapEvery   int  // server SnapshotEvery
	scrapeEvery int  // client 0 scrapes /metrics before every scrapeEvery-th batch
	dumper      bool // a second client streams /dump exports during the writes
	dumpsAfter  int  // dumps per session after the writes
	recoveries  int  // recoveries timed per round, each from a copy of the data directory
	// replayCheck compares every served session's final dump with an
	// in-process replay of the same batches.
	replayCheck bool
}

// The offline stage cleans §7.1 default datasets (ρ = 5%, constant
// share 0.5, weights on) of offlineOrders orders each: many small
// independently seeded databases average out how much one seed's noise
// happens to cascade, which a single large one cannot at this cost.
// Every workload runs the same offline stage (same share, same
// datasets for a seed), so each reports every end-to-end metric; the
// repair times and quality it gives are one measurement repeated per
// workload, and a change outside repair, cfd and increpair should
// leave them equal across workloads.
const (
	offlineOrders   = 1000
	offlineReadReps = 5 // ReadCSV repetitions per dataset (setup samples)
	// offlineShare of --seconds goes to the offline stage, at about
	// offlineUnitSecs of wall time per dataset (generation included).
	offlineShare    = 0.5
	offlineUnitSecs = 0.45
)

// counts sizes a run: offline datasets and service rounds.
func (sp *spec) counts(seconds int) (offline, rounds int) {
	offline = max(1, int(math.Round(offlineShare*float64(seconds)/offlineUnitSecs)))
	rounds = max(1, int(math.Round(sp.service.share*float64(seconds)/sp.service.roundSecs)))
	return offline, rounds
}

// scale shrinks inputs for the self-test; the benchmark runs at 1.
type scale float64

func (s scale) n(x int) int {
	return max(1, int(float64(x)*float64(s)))
}

// sessionInput is one tenant of the service stage: a clean base, Σ,
// and the arriving tuples as sync /apply batches.
type sessionInput struct {
	name    string
	baseCSV string
	cfds    string
	batches [][]*relation.Tuple // arriving tuples, ids zero
	bodies  [][]byte            // each batch as a marshalled ApplyRequest
	tuples  int
}

// Sub-seeds keep every generated dataset of a run distinct and derived
// from --seed alone.
func offlineSeed(seed int64, k int) int64    { return seed*100000 + int64(k) }
func sessionSeed(seed int64, r, i int) int64 { return seed*100000 + 50000 + int64(10*r+i) }

// offlineConfig is dataset k of a run's offline stage.
func offlineConfig(seed int64, k int, sc scale) gen.Config {
	return gen.Config{Size: sc.n(offlineOrders), NoiseRate: 0.05, ConstShare: 0.5,
		Weights: true, Seed: offlineSeed(seed, k)}
}

var workloads = map[string]*spec{
	"batch-clean": {
		setupOffline: true,
		service: serviceSpec{share: 0.3, roundSecs: 0.5, setupReps: 1, snapEvery: 16, scrapeEvery: 10,
			dumpsAfter: 3, recoveries: 3, replayCheck: true},
		sessions: func(seed int64, r int, sc scale) ([]*sessionInput, error) {
			// Offline dataset r's own stream: its dirty tuples arrive
			// again, one per request, at a session over its clean version.
			ds, err := gen.New(offlineConfig(seed, r, sc))
			if err != nil {
				return nil, err
			}
			deltas, _ := ds.StreamBatches(len(ds.DirtyIDs))
			return []*sessionInput{newSessionInput("orders", ds.Opt, ds.CFDs, deltas)}, nil
		},
	},
	"stream-repair": {
		service: serviceSpec{share: 0.5, roundSecs: 3.2, setupReps: 2, snapEvery: 64, scrapeEvery: 10,
			dumpsAfter: 5, recoveries: 1, replayCheck: true},
		sessions: func(seed int64, r int, sc scale) ([]*sessionInput, error) {
			// Two tenants per round, each over its own 5k-order clean base,
			// streaming the first 100 of its dirty orders two at a time.
			var out []*sessionInput
			for i := 0; i < 2; i++ {
				ds, err := gen.New(gen.Config{Size: sc.n(5000), NoiseRate: 0.08, ConstShare: 0.5,
					Weights: true, Seed: sessionSeed(seed, r, i)})
				if err != nil {
					return nil, err
				}
				deltas, _ := ds.StreamBatches(max(1, len(ds.DirtyIDs)/2))
				deltas = deltas[:min(len(deltas), 50)]
				out = append(out, newSessionInput(fmt.Sprintf("tenant-%d", i), ds.Opt, ds.CFDs, deltas))
			}
			return out, nil
		},
	},
	"ingest-dump": {
		service: serviceSpec{share: 1, roundSecs: 16, setupReps: 2, snapEvery: 160, scrapeEvery: 160,
			dumper: true, recoveries: 2},
		sessions: func(seed int64, r int, sc scale) ([]*sessionInput, error) {
			// PatternRows is set explicitly: with the default tableau size
			// gen.New never returns at 40,050 orders or more (see README).
			baseN, total := sc.n(20000), sc.n(50000)
			ds, err := gen.New(gen.Config{Size: total, NoiseRate: 0.005, ConstShare: 0.5,
				PatternRows: 4000, Weights: true, Seed: sessionSeed(seed, r, 0)})
			if err != nil {
				return nil, err
			}
			base := relation.New(ds.Schema)
			for _, t := range ds.Opt.Tuples()[:baseN] {
				base.MustInsert(t.Clone())
			}
			var deltas [][]*relation.Tuple
			arr := ds.Dirty.Tuples()[baseN:]
			per := sc.n(25)
			for i := 0; i < len(arr); i += per {
				deltas = append(deltas, arr[i:min(i+per, len(arr))])
			}
			return []*sessionInput{newSessionInput("ingest", base, ds.CFDs, deltas)}, nil
		},
	},
}

func newSessionInput(name string, base *relation.Relation, cfds []*cfd.CFD, deltas [][]*relation.Tuple) *sessionInput {
	var csvBuf, cfdBuf bytes.Buffer
	if err := relation.WriteCSV(base, &csvBuf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	if err := cfd.Format(&cfdBuf, cfds); err != nil {
		panic(err)
	}
	si := &sessionInput{name: name, baseCSV: csvBuf.String(), cfds: cfdBuf.String()}
	for _, d := range deltas {
		batch := make([]*relation.Tuple, len(d))
		wire := make([]server.WireTuple, len(d))
		for i, t := range d {
			c := t.Clone()
			c.ID = 0 // the session assigns arrival-order ids
			batch[i] = c
			wire[i] = server.EncodeTuple(c)
			wire[i].ID = 0
		}
		body, err := json.Marshal(server.ApplyRequest{Inserts: wire})
		if err != nil {
			panic(err)
		}
		si.batches = append(si.batches, batch)
		si.bodies = append(si.bodies, body)
		si.tuples += len(d)
	}
	return si
}

// csvBytes is the CSV size of the given tuples, header excluded: the
// user bytes the WAL's size is compared against.
func csvBytes(s *relation.Schema, batches [][]*relation.Tuple) int {
	var buf bytes.Buffer
	enc, err := relation.NewCSVEncoder(&buf, s)
	if err != nil {
		panic(err)
	}
	if err := enc.Flush(); err != nil {
		panic(err)
	}
	header := buf.Len()
	for _, b := range batches {
		for _, t := range b {
			if err := enc.Write(t); err != nil {
				panic(err)
			}
		}
	}
	if err := enc.Flush(); err != nil {
		panic(err)
	}
	return buf.Len() - header
}

// sigmaFor parses the session's Σ against its base schema, as the
// server does at create.
func sigmaFor(si *sessionInput) (*relation.Relation, []*cfd.Normal, error) {
	base, err := relation.ReadCSV(si.name, strings.NewReader(si.baseCSV))
	if err != nil {
		return nil, nil, err
	}
	parsed, err := cfd.Parse(base.Schema(), strings.NewReader(si.cfds))
	if err != nil {
		return nil, nil, err
	}
	return base, cfd.NormalizeAll(parsed), nil
}
