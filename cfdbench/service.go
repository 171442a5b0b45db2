package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cfdclean/internal/server"
)

// The service stage drives an in-process cfdserved over loopback HTTP:
// durable sessions (-fsync batch), closed-loop sync /apply writers, an
// optional concurrent /dump reader, Prometheus scrapes, graceful
// shutdown, then recovery of fresh servers from the data directory.
// Each round hosts its own freshly generated tenants in an empty data
// directory.

// liveServer is one in-process server on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer(dir string, snapEvery int, recover bool) (*liveServer, error) {
	srv := server.New(server.Options{DataDir: dir, Fsync: server.FsyncBatch, SnapshotEvery: snapEvery})
	if recover {
		n, err := srv.Recover()
		if err != nil {
			return nil, fmt.Errorf("recover %s: %w", dir, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("recover %s: no session restored", dir)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln)
	}()
	return ls, nil
}

// stop drains the registry (every accepted batch lands), closes the
// listener and waits for the serving goroutine to exit.
func (ls *liveServer) stop(c *http.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if herr := ls.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-ls.done
	c.CloseIdleConnections()
	return err
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
}

// serviceResult gathers every round's observations.
type serviceResult struct {
	rounds      int
	setup       []float64 // seconds per set-up
	applyLat    []time.Duration
	stages      [3][]time.Duration // queue, engine, persist from X-Stage-*
	httpOver    []time.Duration    // round trip minus stage sum
	tuples      int
	writeWindow time.Duration
	dumps       int
	dumpLat     []time.Duration
	dumpRate    []float64 // rows/s of each dump
	promLat     []time.Duration
	foldMean    []float64
	recovery    []float64
	peakRSS     float64 // MiB: the largest VmHWM of any round's servers
	diskBytes   int64   // data directories at the end of each round
	userBytes   int64   // CSV bytes of the final relations
}

var stageHeaders = [3]string{"X-Stage-Queue-Us", "X-Stage-Engine-Us", "X-Stage-Persist-Us"}

// runRound is one full pass: set-up, writes (and concurrent reads),
// post-write reads and checks, shutdown, recoveries. want, when
// non-nil, holds each session's expected final dump. It reports false
// when an operation failed and the run cannot go on.
func runRound(c *http.Client, dir string, sessions []*sessionInput, want [][]byte, sp serviceSpec, res *serviceResult, tr *tracer, tl *tally) bool {
	// peak_rss_mb covers the round from here, with its inputs and
	// expected dumps already built: the servers, plus what the clients
	// hold while they run.
	if tl.op(resetPeakRSS()) != nil {
		return false
	}
	var ls *liveServer
	for r := 0; r < sp.setupReps; r++ {
		if ls != nil {
			if tl.op(ls.stop(c)) != nil {
				return false
			}
		}
		if tl.op(os.RemoveAll(dir)) != nil {
			return false
		}
		// Each timed set-up and recovery starts from a collected heap, so
		// none of them pays for the garbage of the server before it.
		runtime.GC()
		id := tr.begin("server", "setup", 0)
		t0 := time.Now()
		var err error
		ls, err = startServer(dir, sp.snapEvery, false)
		if tl.op(err) != nil {
			tr.end(id)
			return false
		}
		for _, si := range sessions {
			cr := server.CreateRequest{Name: si.name, CFDs: si.cfds, BaseCSV: si.baseCSV,
				Options: &server.WireOptions{Ordering: "linear"}}
			if tl.op(postJSON(c, ls.base+"/v1/sessions", cr, http.StatusCreated, nil)) != nil {
				tr.end(id)
				ls.stop(c)
				return false
			}
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		tr.end(id)
	}
	ok := writeAndRead(c, ls, sessions, sp, res, tr, tl)

	// Post-write reads: extra dumps for the read metric, the pipeline
	// counters, and the final dump each check compares against.
	final := make([][]byte, len(sessions))
	var user int64
	for i, si := range sessions {
		for k := 0; ok && k < sp.dumpsAfter; k++ {
			if err := res.dump(c, ls.base, si.name, tr); tl.op(err) != nil {
				ok = false
			}
		}
		b, err := getBytes(c, ls.base+"/v1/sessions/"+si.name+"/dump")
		if tl.op(err) != nil {
			ok = false
			continue
		}
		final[i] = b
		if want != nil {
			tl.check(bytes.Equal(b, want[i]), "session %s: served dump differs from the in-process replay", si.name)
		}
		user += int64(len(b))
	}
	var mr server.MetricsResponse
	if err := getJSON(c, ls.base+"/v1/metrics", &mr); tl.op(err) == nil && mr.Ops != nil && mr.Ops.FoldBatches != nil {
		res.foldMean = append(res.foldMean, mr.Ops.FoldBatches.Mean)
	}
	if tl.op(ls.stop(c)) != nil || !ok {
		return false
	}
	res.userBytes += user
	res.diskBytes += dirBytes(dir)

	// Recovery: a fresh server on a copy of the data directory, timed
	// until every session answers again; the copy keeps each attempt
	// replaying the same WAL tail.
	for k := 0; k < sp.recoveries; k++ {
		rdir := dir + fmt.Sprintf("-rec%d", k)
		if tl.op(copyDir(dir, rdir)) != nil {
			return false
		}
		runtime.GC()
		id := tr.begin("server", "recover", 0)
		t0 := time.Now()
		rs, err := startServer(rdir, sp.snapEvery, true)
		if tl.op(err) != nil {
			tr.end(id)
			return false
		}
		for _, si := range sessions {
			var info server.SessionInfo
			tl.op(getJSON(c, rs.base+"/v1/sessions/"+si.name, &info))
		}
		res.recovery = append(res.recovery, time.Since(t0).Seconds())
		tr.end(id)
		for i, si := range sessions {
			b, err := getBytes(c, rs.base+"/v1/sessions/"+si.name+"/dump")
			if tl.op(err) == nil {
				tl.check(bytes.Equal(b, final[i]), "session %s: recovered dump differs from the dump before shutdown", si.name)
			}
		}
		tl.op(rs.stop(c))
		os.RemoveAll(rdir)
	}
	peak, err := peakRSSMB()
	if tl.op(err) != nil {
		return false
	}
	res.peakRSS = max(res.peakRSS, peak)
	res.rounds++
	return true
}

// writeAndRead streams every session's batches from its own client
// goroutine (closed loop: the next request goes out when the previous
// reply is in), with the optional dump client alongside.
func writeAndRead(c *http.Client, ls *liveServer, sessions []*sessionInput, sp serviceSpec, res *serviceResult, tr *tracer, tl *tally) bool {
	type writerOut struct {
		lat    []time.Duration
		stages [3][]time.Duration
		over   []time.Duration
		prom   []time.Duration
		tuples int
		err    error
	}
	outs := make([]writerOut, len(sessions))
	stopDumps := make(chan struct{})
	var dumpWG, wg sync.WaitGroup
	var dumpErr error
	if sp.dumper {
		dumpWG.Add(1)
		go func() {
			defer dumpWG.Done()
			for {
				if err := res.dump(c, ls.base, sessions[0].name, tr); tl.op(err) != nil {
					dumpErr = err
					return
				}
				select {
				case <-stopDumps:
					return
				default:
				}
			}
		}()
	}
	start := time.Now()
	for i, si := range sessions {
		wg.Add(1)
		go func(i int, si *sessionInput) {
			defer wg.Done()
			o := &outs[i]
			url := ls.base + "/v1/sessions/" + si.name + "/apply"
			for b, body := range si.bodies {
				id := tr.begin("server", "POST apply", 0)
				t0 := time.Now()
				hdr, err := postApply(c, url, body, len(si.batches[b]))
				d := time.Since(t0)
				if tl.op(err) != nil {
					tr.end(id)
					o.err = err
					return
				}
				o.lat = append(o.lat, d)
				o.tuples += len(si.batches[b])
				var sum, off time.Duration
				for k, h := range stageHeaders {
					v, perr := strconv.ParseInt(hdr.Get(h), 10, 64)
					if perr != nil {
						continue
					}
					sd := time.Duration(v) * time.Microsecond
					o.stages[k] = append(o.stages[k], sd)
					tr.child(id, [3]string{"server", "increpair", "wal"}[k], h, off, sd)
					off += sd
					sum += sd
				}
				tr.end(id)
				o.over = append(o.over, d-sum)
				if i == 0 && b%sp.scrapeEvery == 0 {
					sid := tr.begin("server", "GET /metrics", 0)
					t0 := time.Now()
					_, err := getBytes(c, ls.base+"/metrics")
					o.prom = append(o.prom, time.Since(t0))
					tr.end(sid)
					if tl.op(err) != nil {
						o.err = err
						return
					}
				}
			}
		}(i, si)
	}
	wg.Wait()
	res.writeWindow += time.Since(start)
	close(stopDumps)
	dumpWG.Wait()
	ok := dumpErr == nil
	for _, o := range outs {
		res.applyLat = append(res.applyLat, o.lat...)
		for k := range o.stages {
			res.stages[k] = append(res.stages[k], o.stages[k]...)
		}
		res.httpOver = append(res.httpOver, o.over...)
		res.promLat = append(res.promLat, o.prom...)
		res.tuples += o.tuples
		if o.err != nil {
			ok = false
		}
	}
	return ok
}

// postApply sends one sync /apply batch and checks the reply: 200, one
// repaired tuple per arriving tuple, and a session that satisfies Σ.
func postApply(c *http.Client, url string, body []byte, n int) (http.Header, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	var ar server.ApplyResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		return nil, err
	}
	if !ar.Snapshot.Satisfied {
		return nil, fmt.Errorf("POST %s: reply reports violations (satisfied=false)", url)
	}
	if len(ar.Inserted) != n {
		return nil, fmt.Errorf("POST %s: %d tuples inserted, sent %d", url, len(ar.Inserted), n)
	}
	return resp.Header, nil
}

// dump streams one CSV export, counts its rows and requires the
// completion trailer that tells a finished export from a cut one.
func (res *serviceResult) dump(c *http.Client, base, name string, tr *tracer) error {
	id := tr.begin("server", "GET dump", 0)
	defer tr.end(id)
	t0 := time.Now()
	resp, err := c.Get(base + "/v1/sessions/" + name + "/dump")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET dump %s: status %d", name, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if resp.Trailer.Get("X-Dump-Complete") != "true" {
		return fmt.Errorf("GET dump %s: no completion trailer", name)
	}
	d := time.Since(t0)
	rows := max(0, lines-1)
	res.dumps++
	res.dumpLat = append(res.dumpLat, d)
	res.dumpRate = append(res.dumpRate, float64(rows)/d.Seconds())
	return nil
}

func postJSON(c *http.Client, url string, v any, want int, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

func getBytes(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func getJSON(c *http.Client, url string, out any) error {
	b, err := getBytes(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
