// Command cfdbench is cfdclean's benchmark: one command that runs a
// named workload against the library and an in-process cfdserved,
// checks every output, and prints the end-to-end metrics (untraced
// mode) or the per-layer metrics (traced mode) as one JSON line.
//
//	bash cfdbench/run.sh --workload batch-clean --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// how the layers are expected to move the end-to-end numbers.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // work directory for data directories, traces and results
	scale    scale  // input scale: 1 for the benchmark
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: batch-clean, stream-repair or ingest-dump")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measuring time of the timed stages, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/cfdbench-work", "work directory (data directories, traces, results)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.scale = 1
	if workloads[cfg.workload] == nil || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: cfdbench --workload batch-clean|stream-repair|ingest-dump --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdbench:", err)
	}
	if rep != nil {
		writeResultFile(cfg, rep, res)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		// The report on standard output lists them too; standard error
		// keeps the reason where a caller that shows only it can see it.
		if rep != nil {
			for _, e := range rep.Errors {
				fmt.Fprintln(os.Stderr, "cfdbench: failed:", e)
			}
		}
		os.Exit(1)
	}
}

// report is everything a run observed beyond the metrics: the
// environment header, input sizes, sample counts, the per-layer
// metrics' predicted effects, and the errors of a failed run.
type report struct {
	Env     map[string]any    `json:"env"`
	Inputs  map[string]int    `json:"inputs"`
	Samples map[string]int    `json:"samples"`
	Extra   map[string]any    `json:"extra,omitempty"`
	Moves   map[string]string `json:"moves,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

// run executes one workload and returns the result line and the report.
func run(cfg config) (*result, *report, error) {
	sp := workloads[cfg.workload]
	res := &result{Metrics: map[string]metric{}}
	tl := &tally{}
	// A fresh directory per run: nothing an earlier run left behind,
	// under any process id, can reach this one's servers.
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return res, nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(work)

	// Inputs are generated outside every timed span, each offline
	// dataset and each round's tenants just before they are used.
	nOff, nRounds := sp.counts(cfg.seconds)
	svc := sp.service
	if cfg.scale < 1 {
		svc.snapEvery = 2
	}
	rep := newReport(cfg, svc, work)

	var tr *tracer
	var cost time.Duration
	if cfg.trace {
		cost = spanCost()
		tr = newTracer()
	}
	wallStart := time.Now()

	// Offline datasets and service rounds interleave evenly, so both
	// stages sample the whole run rather than one stretch of it.
	off := &offlineResult{}
	sv := &serviceResult{}
	c := newClient()
	var first *sessionInput  // round 0's first tenant, replayed by the traced run
	var firstSet *offlineSet // offline dataset 0, read again by the traced run
	var offWall, svcWall time.Duration
	for k, r := 0, 0; k < nOff || r < nRounds; {
		// Collect the previous step's garbage (a whole server's, after a
		// round) before the next step's clocks start.
		runtime.GC()
		stepStart := time.Now()
		if r >= nRounds || (k < nOff && k*nRounds <= r*nOff) {
			set, err := newOfflineSet(cfg.seed, k, cfg.scale)
			if tl.op(err) != nil {
				return finish(res, rep, tl), rep, err
			}
			if k == 0 {
				firstSet = set
			}
			rep.Inputs["offline_datasets"]++
			rep.Inputs["offline_orders"] += set.opt.Size()
			off.run(k, set, tr, tl)
			offWall += time.Since(stepStart)
			k++
			continue
		}
		sessions, err := sp.sessions(cfg.seed, r, cfg.scale)
		if err != nil {
			return res, rep, err
		}
		rep.addRound(sp, sessions)
		if r == 0 {
			first = sessions[0]
		}
		var want [][]byte
		if svc.replayCheck {
			// Each served session must end byte-identical to the same
			// batches applied in process; the tenants replay in parallel.
			want = make([][]byte, len(sessions))
			errs := make([]error, len(sessions))
			var wg sync.WaitGroup
			for i, si := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					want[i], errs[i] = replayDump(si)
				}()
			}
			wg.Wait()
			if err := tl.op(errors.Join(errs...)); err != nil {
				return finish(res, rep, tl), rep, err
			}
		}
		dir := filepath.Join(work, fmt.Sprintf("round%d", r))
		if !runRound(c, dir, sessions, want, svc, sv, tr, tl) {
			return finish(res, rep, tl), rep, fmt.Errorf("round %d failed", r)
		}
		os.RemoveAll(dir)
		svcWall += time.Since(stepStart)
		r++
	}

	var lr *layerResult
	if cfg.trace {
		setupCSV := []byte(first.baseCSV)
		if sp.setupOffline {
			setupCSV = firstSet.dirtyCSV
		}
		lr = replayLayers(filepath.Join(work, "layers"), first, setupCSV, svc.snapEvery, tr, tl)
	}
	wall := time.Since(wallStart)

	rep.Samples["offline_datasets"] = len(off.batchS)
	rep.Samples["setups"] = len(sv.setup)
	rep.Samples["service_rounds"] = sv.rounds
	rep.Samples["apply_round_trips"] = len(sv.applyLat)
	rep.Samples["dumps"] = sv.dumps
	rep.Samples["recoveries"] = len(sv.recovery)
	rep.Samples["prom_scrapes"] = len(sv.promLat)
	rep.Extra["apply_latency_ms"] = latencySummary(msAll(sv.applyLat))
	// Wall time by stage, input generation, replays and recoveries
	// included: what --seconds sizes.
	rep.Extra["wall_s"] = map[string]float64{"offline": offWall.Seconds(), "service": svcWall.Seconds(), "total": time.Since(wallStart).Seconds()}
	rep.Extra["batch_quality"] = off.batchQ
	rep.Extra["inc_quality"] = off.incQ
	e2e := endToEnd(sp, off, sv)
	rep.Extra["end_to_end"] = e2e
	if cfg.trace {
		rep.Samples["spans"] = tr.count()
		overhead := 100 * float64(tr.count()) * float64(cost) / float64(wall)
		rep.Extra["span_cost_ns"] = cost.Nanoseconds()
		// trace.overhead_pct is an estimate; the measured difference
		// needs an untraced report of the same seed from this binary.
		if prev := readUntraced(cfg); prev != nil {
			rep.Extra["untraced_end_to_end"] = prev
			diff := map[string]float64{}
			for name, m := range e2e {
				if p, ok := prev[name]; ok && p.Value != 0 {
					diff[name] = 100 * (m.Value - p.Value) / p.Value
				}
			}
			rep.Extra["traced_minus_untraced_pct"] = diff
		}
		tracePath := filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); tl.op(err) == nil {
			tl.op(tr.write(tracePath))
		}
		res.Metrics = perLayer(off, sv, lr, tr.selfTimes(), overhead)
		rep.Moves = moves
	} else {
		res.Metrics = e2e
		res.Metrics["success_rate"] = metric{0, "ratio"} // filled by finish
	}
	return finish(res, rep, tl), rep, nil
}

// finish settles correctness: a run with any failed operation or check
// is incorrect and reports no numbers.
func finish(res *result, rep *report, tl *tally) *result {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			tl.attempted++
			tl.failed++
			tl.errs = append(tl.errs, "metric "+name+" has no value")
		}
	}
	res.Attempted, res.Failed = tl.attempted, tl.failed
	res.Correct = tl.failed == 0 && tl.attempted > 0
	if rep != nil {
		rep.Errors = tl.errs
	}
	if !res.Correct {
		res.Metrics = map[string]metric{}
		if rep != nil {
			rep.Extra = nil // may hold the missing values
		}
		return res
	}
	if _, ok := res.Metrics["success_rate"]; ok {
		res.Metrics["success_rate"] = metric{1 - float64(tl.failed)/float64(tl.attempted), "ratio"}
	}
	return res
}

func newReport(cfg config, svc serviceSpec, work string) *report {
	rep := &report{
		Env: map[string]any{
			"workload":       cfg.workload,
			"trace":          cfg.trace,
			"seed":           cfg.seed,
			"seconds":        cfg.seconds,
			"nproc":          runtime.NumCPU(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"go":             runtime.Version(),
			"commit":         commit(),
			"build":          buildID(),
			"data_dir_fs":    fsType(work),
			"fsync":          "batch",
			"snapshot_every": svc.snapEvery,
		},
		Inputs:  map[string]int{},
		Samples: map[string]int{},
		Extra:   map[string]any{},
	}
	return rep
}

// addRound records one service round's input sizes.
func (rep *report) addRound(sp *spec, sessions []*sessionInput) {
	clients := len(sessions)
	if sp.service.dumper {
		clients++
	}
	rep.Env["clients"] = clients
	rep.Inputs["service_rounds"]++
	for _, si := range sessions {
		rep.Inputs["sessions"]++
		rep.Inputs["base_orders"] += strings.Count(si.baseCSV, "\n") - 1
		rep.Inputs["arriving_orders"] += si.tuples
		rep.Inputs["batches"] += len(si.batches)
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS returns freed heap to the OS and resets the process's
// resident-set high-water mark (VmHWM) to its current resident set, so
// the next peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// peakRSSMB is the process's VmHWM, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func resultPath(cfg config, trace bool) string {
	return filepath.Join(cfg.dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[trace]))
}

// writeResultFile keeps the run's report and result next to the traces,
// so a traced run can state its difference from the untraced one.
func writeResultFile(cfg config, rep *report, res *result) {
	if res.Correct {
		rep.Extra["result"] = res
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdbench: report:", err)
		return
	}
	fmt.Println(string(b))
	path := resultPath(cfg, cfg.trace)
	if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		os.WriteFile(path, b, 0o644)
	}
}

// readUntraced loads the end-to-end metrics of the latest untraced run
// of the same workload and seed, if one was kept by this same binary;
// a report from another build, or with no build identity, is ignored.
func readUntraced(cfg config) map[string]metric {
	b, err := os.ReadFile(resultPath(cfg, false))
	if err != nil {
		return nil
	}
	var r struct {
		Env struct {
			Build string `json:"build"`
		} `json:"env"`
		Extra struct {
			EndToEnd map[string]metric `json:"end_to_end"`
		} `json:"extra"`
	}
	if json.Unmarshal(b, &r) != nil || r.Env.Build == "unknown" || r.Env.Build != buildID() {
		return nil
	}
	return r.Extra.EndToEnd
}

// buildID identifies the running binary by a hash of its file, which
// tells two builds apart even where no VCS revision was recorded.
func buildID() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
