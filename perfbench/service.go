package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aitia/internal/kasm"
	"aitia/internal/obs"
	"aitia/internal/service"
	"aitia/internal/service/httpapi"
)

// Service workload shape. The server runs with aitia-serve's defaults
// (4 workers, job-workers 1, cache 128, prior on) and a data dir without
// fsync; two closed-loop clients each keep one connection.
const (
	svcClients    = 2
	warmRequests  = 200  // fill the journal, the prior and the cache before the restart
	svcEpisode    = 1000 // measured requests per episode, a few seconds
	svcWindow     = 250  // answers per window; an episode holds four
	svcTailWindow = 200  // blind misses per tail window: p90 keeps 20 beyond
	pollInterval  = time.Millisecond
	svcStopBudget = 30 * time.Second
)

// server is the service plus its HTTP front end on a loopback listener.
type server struct {
	svc  *service.Service
	hs   *http.Server
	url  string
	done chan error
}

func startServer(cfg service.Config) (*server, error) {
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	s := &server{svc: svc, hs: &http.Server{Handler: httpapi.New(svc)}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and drains the service; it returns once the
// serving goroutine has exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), svcStopBudget)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.done; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	if err := s.svc.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return herr
}

// client is one closed-loop caller with a single keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// answer is the outcome of one submission.
type answer struct {
	ok      bool
	hit     bool
	latency time.Duration
	post    time.Duration
	polls   int
	status  service.JobStatus
	trace   []obs.Event // job trace, traced phases only
	err     string
}

// submit posts a request and polls its job until it ends.
func (c *client) submit(r svcRequest, traced bool) answer {
	var a answer
	t0 := time.Now()
	code, body, err := c.do("POST", r.Path, r.Body)
	a.post = time.Since(t0)
	if err != nil || code != http.StatusAccepted {
		a.err = fmt.Sprintf("POST %s: status %d: %v %s", r.Path, code, err, body)
		return a
	}
	if err := json.Unmarshal(body, &a.status); err != nil {
		a.err = fmt.Sprintf("POST %s: %v", r.Path, err)
		return a
	}
	a.hit = a.status.CacheHit
	for a.status.State == service.StateQueued || a.status.State == service.StateRunning {
		time.Sleep(pollInterval)
		a.polls++
		code, body, err = c.do("GET", "/v1/jobs/"+a.status.ID, nil)
		if err != nil || code != http.StatusOK {
			a.err = fmt.Sprintf("GET job %s: status %d: %v", a.status.ID, code, err)
			return a
		}
		if err := json.Unmarshal(body, &a.status); err != nil {
			a.err = fmt.Sprintf("GET job %s: %v", a.status.ID, err)
			return a
		}
	}
	a.latency = time.Since(t0)
	switch {
	case a.status.State != service.StateDone || a.status.Result == nil:
		a.err = fmt.Sprintf("job %s ended %s: %s", a.status.ID, a.status.State, a.status.Error)
		return a
	case a.status.Result.Chain != r.Chain:
		a.err = fmt.Sprintf("job %s chain %q, want %q", a.status.ID, a.status.Result.Chain, r.Chain)
		return a
	}
	if traced && !a.hit {
		code, body, err = c.do("GET", "/v1/jobs/"+a.status.ID+"/trace", nil)
		if err != nil || code != http.StatusOK {
			a.err = fmt.Sprintf("GET trace %s: status %d: %v", a.status.ID, code, err)
			return a
		}
		if err := obs.ValidateChrome(body); err != nil {
			a.err = fmt.Sprintf("trace %s: %v", a.status.ID, err)
			return a
		}
		evs, err := parseChrome(body)
		if err != nil {
			a.err = fmt.Sprintf("trace %s: %v", a.status.ID, err)
			return a
		}
		a.trace = evs
	}
	a.ok = true
	return a
}

// svcPhase accumulates one measured phase of the service workload.
type svcPhase struct {
	mu        sync.Mutex
	attempted int
	failed    int
	blindMS   []float64
	reportMS  []float64
	hitMS     []float64
	postMS    []float64
	queueMS   []float64
	runMS     []float64
	misses    int
	polls     int
	dupMisses int
	cnt       counters
	outside   []float64 // traced misses: the job's run span outside the pipeline stages, ms
	agg       *spanAgg
	clk       *clock
	win       windows
	use       elapsed
}

// newSvcPhase starts a phase; traced phases fetch and aggregate job
// traces.
func newSvcPhase(traced bool, clk *clock) *svcPhase {
	p := &svcPhase{clk: clk, win: windows{size: svcWindow}}
	if traced {
		p.agg = newSpanAgg()
	}
	return p
}

func (p *svcPhase) record(r svcRequest, a answer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !a.ok {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", a.err)
		return
	}
	p.postMS = append(p.postMS, ms(a.post))
	lat := ms(a.latency)
	if a.hit {
		p.hitMS = append(p.hitMS, lat)
		p.win.answered(p.clk.now())
		return
	}
	p.misses++
	p.polls += a.polls
	if r.Kind == kindResub {
		p.dupMisses++
	}
	if r.Of == kindReport {
		p.reportMS = append(p.reportMS, lat)
	} else {
		p.blindMS = append(p.blindMS, lat)
		p.win.blind(lat)
	}
	p.win.answered(p.clk.now())
	p.cnt.add(a.status.Result)
	if a.trace != nil {
		p.agg.addEvents(a.trace)
		p.agg.keepEvents(a.trace)
		for _, ev := range a.trace {
			if ev.Cat != "job" {
				continue
			}
			switch ev.Name {
			case "queued":
				p.queueMS = append(p.queueMS, ms(ev.Dur))
			case "run":
				p.runMS = append(p.runMS, ms(ev.Dur))
				p.outside = append(p.outside, ms(outside(a.status.Result, ev.Dur)))
			}
		}
	}
}

// drive runs the clients over reqs, taking the next index from *next,
// until the list is exhausted.
func drive(url string, reqs []svcRequest, next *atomic.Int64, p *svcPhase) {
	var wg sync.WaitGroup
	for i := 0; i < svcClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				p.record(reqs[i], c.submit(reqs[i], p.agg != nil))
			}
		}()
	}
	wg.Wait()
}

func runService(c config) (*measurement, error) {
	base, err := filepath.Abs(filepath.Join(c.out, fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	reqs, err := genService(c.seed, warmRequests+svcEpisode)
	if err != nil {
		return nil, fmt.Errorf("generating requests: %w", err)
	}
	warm, reqs := reqs[:warmRequests], reqs[warmRequests:]
	warmDir := filepath.Join(base, "warm")

	// Warm-up: fill the journal, the prior and the cache, then stop.
	srv, err := startServer(service.Config{DataDir: warmDir})
	if err != nil {
		return nil, fmt.Errorf("warm-up open: %w", err)
	}
	var next atomic.Int64
	wp := newSvcPhase(false, startClock(false))
	drive(srv.url, warm, &next, wp)
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("warm-up stop: %w", err)
	}
	if wp.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", wp.failed, wp.attempted)
	}

	m := &measurement{tailSize: svcTailWindow, dataFS: fsType(base)}
	total := time.Duration(c.seconds) * time.Second
	// The traced run splits the time into an untraced and a traced phase.
	traced := []bool{false}
	if c.trace {
		traced = []bool{false, true}
	}
	var phases []*svcPhase
	var k svcLayerCounts
	episodes := 0
	rss := startRSS()
	for _, tr := range traced {
		clk := startClock(c.trace && !tr)
		p := newSvcPhase(tr, clk)
		phases = append(phases, p)
		deadline := time.Now().Add(total / time.Duration(len(traced)))
		for first := true; first || time.Now().Before(deadline); first = false {
			ek, eerr := episode(filepath.Join(base, fmt.Sprintf("episode%d", episodes)), warmDir, reqs, p, m)
			if eerr != nil {
				err = eerr
				break
			}
			episodes++
			k.journalBytes += ek.journalBytes
			k.ckptSaves += ek.ckptSaves
			k.replayed, k.pairs = ek.replayed, ek.pairs
		}
		p.win.end(clk.now())
		p.use = clk.stop()
		m.attempted += p.attempted
		m.failed += p.failed
		m.blindMS = append(m.blindMS, p.blindMS...)
		m.reportMS = append(m.reportMS, p.reportMS...)
		m.hitMS = append(m.hitMS, p.hitMS...)
		m.answers += len(p.blindMS) + len(p.reportMS) + len(p.hitMS)
		if !tr {
			m.win = p.win
		}
		if err != nil {
			break
		}
	}
	samples, rerr := rss.stop()
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	m.rssMB = samples
	m.notes = append(m.notes, fmt.Sprintf("service mix episodes=%d attempted=%d blind_misses=%d report_misses=%d cache_hits=%d",
		episodes, m.attempted, len(m.blindMS), len(m.reportMS), len(m.hitMS)))
	if c.trace {
		return m, serviceLayers(c, m, phases[0], phases[1], reqs, k)
	}
	return m, nil
}

// episode opens the service on dir, a fresh copy of the warm data dir,
// and times the open as one set-up. It then drives the whole measured
// list through the service, starting a new window, and stops
// the service. It returns the episode's durable and prior counts.
func episode(dir, warmDir string, reqs []svcRequest, p *svcPhase, m *measurement) (svcLayerCounts, error) {
	var k svcLayerCounts
	if err := copyDir(warmDir, dir); err != nil {
		return k, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	srv, err := startServer(service.Config{DataDir: dir})
	if err != nil {
		return k, fmt.Errorf("open: %w", err)
	}
	if err := ready(srv.url); err != nil {
		return k, errors.Join(err, srv.stop())
	}
	m.setupS = append(m.setupS, time.Since(t0).Seconds())
	met := srv.svc.Metrics()
	j0, k0 := met.Journal.Stats(), met.Checkpoints.Stats()
	p.win.start(p.clk.now())
	var next atomic.Int64
	drive(srv.url, reqs, &next, p)
	j1, k1 := met.Journal.Stats(), met.Checkpoints.Stats()
	k = svcLayerCounts{
		journalBytes: j1.AppendedBytes - j0.AppendedBytes,
		ckptSaves:    k1.Saves - k0.Saves,
		replayed:     j0.Replayed,
		pairs:        srv.svc.Prior().Pairs(),
	}
	return k, srv.stop()
}

type svcLayerCounts struct {
	journalBytes, ckptSaves, replayed uint64
	pairs                             int
}

// serviceLayers fills the per-layer metrics of a traced service run.
func serviceLayers(c config, m *measurement, plain, traced *svcPhase, used []svcRequest, k svcLayerCounts) error {
	jobs := float64(plain.attempted + traced.attempted)
	hits := float64(len(plain.hitMS) + len(traced.hitMS))
	misses := plain.misses + traced.misses
	in := layerInputs{
		plain:           plain.cnt,
		plainUse:        plain.use,
		tracingOverhead: ratio(median(append(traced.blindMS, traced.reportMS...)), median(append(plain.blindMS, plain.reportMS...))) - 1,
		self:            traced.agg.self,
		selfDiags:       traced.agg.diags,
		hitRatio:        ratio(hits, jobs),
		dupMisses:       float64(plain.dupMisses + traced.dupMisses),
		journalPerJob:   ratio(float64(k.journalBytes), jobs),
		ckptSavesPerJob: ratio(float64(k.ckptSaves), jobs),
		replayed:        float64(k.replayed),
		priorPairs:      float64(k.pairs),
		pollsPerJob:     ratio(float64(plain.polls+traced.polls), float64(misses)),
	}
	in.overheadMS = mean(traced.outside)
	if err := writeTrace(c, traced.agg.keep.Events()); err != nil {
		return err
	}
	var srcs []string
	var reps []reportInput
	for _, r := range used {
		if r.Kind == kindResub {
			continue
		}
		srcs = append(srcs, r.Source)
		if r.Report != "" {
			prog, err := kasm.Parse(r.Source)
			if err != nil {
				return err
			}
			reps = append(reps, reportInput{prog, r.Report})
		}
	}
	var err error
	if in.kasmParseUS, err = timeKasm(srcs); err != nil {
		return err
	}
	if in.ingestParseUS, in.ingestResUS, in.candidates, err = timeIngest(reps); err != nil {
		return err
	}
	m.layers = perLayer(in)
	post := append(append([]float64(nil), plain.postMS...), traced.postMS...)
	m.layers = append(m.layers,
		line{name: "service.queue_wait_ms_p50", value: median(traced.queueMS), unit: "ms", samples: len(traced.queueMS)},
		line{name: "service.run_ms_p50", value: median(traced.runMS), unit: "ms", samples: len(traced.runMS)},
		line{name: "httpapi.post_ms_p50", value: median(post), unit: "ms", samples: len(post)},
	)
	return nil
}

// ready polls /readyz until the service answers 200.
func ready(url string) error {
	c := newClient(url)
	defer c.close()
	for i := 0; i < 1000; i++ {
		code, _, err := c.do("GET", "/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("service never became ready")
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode().Perm())
	})
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// parseChrome reads the Chrome trace JSON a job's trace endpoint serves
// back into spans: B/E pairs per (pid, tid) lane, in array order.
func parseChrome(data []byte) ([]obs.Event, error) {
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int64   `json:"pid"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, err
	}
	type open struct {
		cat, name string
		ts        float64
	}
	stacks := map[[2]int64][]open{}
	var out []obs.Event
	us := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
	for _, ev := range tr.TraceEvents {
		k := [2]int64{ev.PID, ev.TID}
		switch ev.Ph {
		case "B":
			stacks[k] = append(stacks[k], open{ev.Cat, ev.Name, ev.TS})
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return nil, fmt.Errorf("unmatched end of %q", ev.Name)
			}
			o := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			out = append(out, obs.Event{Cat: o.cat, Name: o.name, Track: ev.TID, Start: us(o.ts), Dur: us(ev.TS - o.ts)})
		}
	}
	return out, nil
}
