package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/increpair"
	"cfdclean/internal/metrics"
	"cfdclean/internal/relation"
	"cfdclean/internal/repair"
)

// offlineSet is one §7.1 dataset as the offline stage sees it: the
// dirty database and its weights as CSV (what a user hands the tool),
// plus the ground truth and Σ.
type offlineSet struct {
	dirtyCSV, weightsCSV []byte
	opt                  *relation.Relation
	sigma                []*cfd.Normal
}

// newOfflineSet generates dataset k of a run. Each is built just before
// it is cleaned; the run keeps only the current one and dataset 0.
func newOfflineSet(seed int64, k int, sc scale) (*offlineSet, error) {
	ds, err := gen.New(offlineConfig(seed, k, sc))
	if err != nil {
		return nil, err
	}
	var d, w bytes.Buffer
	if err := relation.WriteCSV(ds.Dirty, &d); err != nil {
		return nil, err
	}
	if err := relation.WriteWeightsCSV(ds.Dirty, &w); err != nil {
		return nil, err
	}
	return &offlineSet{dirtyCSV: d.Bytes(), weightsCSV: w.Bytes(), opt: ds.Opt, sigma: ds.Sigma}, nil
}

// offlineResult pools the offline stage over its datasets.
type offlineResult struct {
	readCSV      []float64 // seconds per ReadCSV+ReadWeightsCSV
	batchS, incS []float64 // seconds per dataset
	batchQ, incQ metrics.Quality
	resolutions  int
	rounds       int
	batchChanges int
	batchAllocs  uint64
	tuples       int
}

// run cleans dataset k with BATCHREPAIR (workers = GOMAXPROCS) and
// with the §5.3 procedure increpair.Repair (V-ordering), checks both
// outputs satisfy Σ, and scores them against ground truth.
func (res *offlineResult) run(k int, set *offlineSet, tr *tracer, tl *tally) {
	var d *relation.Relation
	for r := 0; r < offlineReadReps; r++ {
		id := tr.begin("relation", "ReadCSV", 0)
		t0 := time.Now()
		rel, err := readWeighted(fmt.Sprintf("orders%d", k), set)
		res.readCSV = append(res.readCSV, time.Since(t0).Seconds())
		tr.end(id)
		if tl.op(err) != nil {
			return
		}
		d = rel
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("repair", "Batch", 0)
	t0 := time.Now()
	br, err := repair.Batch(d, set.sigma, &repair.Options{})
	el := time.Since(t0)
	tr.end(id)
	runtime.ReadMemStats(&after)
	if tl.op(err) != nil {
		return
	}
	res.batchS = append(res.batchS, el.Seconds())
	res.batchAllocs += after.Mallocs - before.Mallocs
	res.resolutions += br.Resolutions
	res.rounds += br.InstantiationRounds
	res.batchChanges += br.Changes
	tl.check(cfd.Satisfies(br.Repair, set.sigma), "dataset %d: BatchRepair output violates Σ", k)
	q, err := metrics.Evaluate(d, br.Repair, set.opt)
	if tl.op(err) != nil {
		return
	}
	addQuality(&res.batchQ, q)

	id = tr.begin("increpair", "Repair", 0)
	t0 = time.Now()
	ir, err := increpair.Repair(d, set.sigma, &increpair.Options{Ordering: increpair.ByViolations})
	el = time.Since(t0)
	tr.end(id)
	if tl.op(err) != nil {
		return
	}
	res.incS = append(res.incS, el.Seconds())
	tl.check(cfd.Satisfies(ir.Repair, set.sigma), "dataset %d: Repair output violates Σ", k)
	q, err = metrics.Evaluate(d, ir.Repair, set.opt)
	if tl.op(err) != nil {
		return
	}
	addQuality(&res.incQ, q)
}

func readWeighted(name string, set *offlineSet) (*relation.Relation, error) {
	rel, err := relation.ReadCSV(name, bytes.NewReader(set.dirtyCSV))
	if err != nil {
		return nil, err
	}
	return rel, relation.ReadWeightsCSV(rel, bytes.NewReader(set.weightsCSV))
}

// addQuality pools cell counts; precision and recall are recomputed
// from the pooled counts.
func addQuality(sum *metrics.Quality, q *metrics.Quality) {
	sum.Noises += q.Noises
	sum.Changes += q.Changes
	sum.Corrected += q.Corrected
	sum.Residual += q.Residual
	sum.Precision, sum.Recall = 1, 1
	if sum.Changes > 0 {
		sum.Precision = float64(sum.Corrected) / float64(sum.Changes)
	}
	if sum.Noises > 0 {
		sum.Recall = float64(sum.Corrected) / float64(sum.Noises)
	}
}
