package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The serve workloads measure clients of the shipped eh-server binary:
// keep-alive HTTP connections in a closed loop, never more of them than
// processors. The server caches plans and results, so the layers that
// matter differ from the embedded workloads'.

const (
	poolSize      = 1024 // distinct query texts
	globalQueries = 3    // they lead the pool; the rest are anchored at a node
	zipfS         = 1.1
	twoHopLimit   = 100
	listingLimit  = 1000
	updateRows    = 64 // rows per /update batch: 32 undirected edges, both directions
	updateLag     = 64 // live batches before the writer starts deleting the oldest
	serverBinName = "eh-server"

	// writerThink is the pause of serve_mixed's writer between an
	// acknowledgement and its next batch. Without it the writer alone
	// saturates a core and the server compacts some fifty times a second;
	// with it batches arrive at about 250 a second, compactions finish
	// several times a second, and the readers' numbers depend on the
	// engine rather than on who wins the processor.
	writerThink = 2 * time.Millisecond
)

// mixedFlags are the durability flags serve_mixed gives the server. The
// compaction ratio is low enough that at least three compactions finish
// inside a window.
var mixedFlags = []string{"-fsync", "always", "-compact-ratio", "0.02", "-compact-min", "1024"}

// httpClient posts JSON over keep-alive connections.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	return &httpClient{base: base, c: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// post sends body to path and returns the reply body and the round-trip
// time. Any status but 200 is an error.
func (h *httpClient) post(path string, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, rtt, nil
}

func (h *httpClient) get(path string, into any) error {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// query runs one pool query and checks the reply.
func (h *httpClient) query(in *inputs, q *poolQuery) (*queryResponse, time.Duration, error) {
	b, rtt, err := h.post("/query", q.Body)
	if err != nil {
		return nil, rtt, err
	}
	var resp queryResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, rtt, err
	}
	return &resp, rtt, in.checkResponse(q, &resp)
}

// serverStats is the part of /stats the per-layer metrics read.
type serverStats struct {
	Admission struct {
		RejectedFull    int64 `json:"rejected_full"`
		RejectedTimeout int64 `json:"rejected_timeout"`
	} `json:"admission"`
	Durability struct {
		WAL struct {
			Fsyncs uint64 `json:"fsyncs"`
		} `json:"wal"`
		Overlays []struct {
			Rows int `json:"rows"`
		} `json:"overlays"`
		Compactions uint64 `json:"compactions"`
	} `json:"durability"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reportServerCounts writes the cache hit ratios the clients saw (replies
// marked result_cached / plan_cached ÷ correct replies) and the counters
// read from /stats before and after.
func reportServerCounts(res *runResult, resultHits, planHits, replies int, a, b *serverStats) {
	res.set("server.result_hit_ratio", ratio(float64(resultHits), float64(replies)), "ratio")
	res.set("server.plan_hit_ratio", ratio(float64(planHits), float64(replies)), "ratio")
	res.set("server.rejected", float64(b.Admission.RejectedFull+b.Admission.RejectedTimeout-
		a.Admission.RejectedFull-a.Admission.RejectedTimeout), "count")
	res.set("server.compactions", float64(b.Durability.Compactions-a.Durability.Compactions), "count")
	rows := 0
	for _, o := range b.Durability.Overlays {
		rows += o.Rows
	}
	res.set("server.overlay_rows_end", float64(rows), "count")
	res.set("server.wal_fsyncs", float64(b.Durability.WAL.Fsyncs-a.Durability.WAL.Fsyncs), "count")
}

// serverProc is an eh-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer spawns the server and waits until /readyz answers 200.
func startServer(bin string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr}
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, errors.New("eh-server did not become ready in 60 s")
}

// kill sends SIGKILL and waits for the process to end.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already gone is fine
	_ = p.cmd.Wait()         // the exit status of a killed child says nothing
}

// serveEnv is the on-disk state of one server instance.
type serveEnv struct {
	bin  string
	dir  string
	args []string
}

// newServeEnv writes the edge-list file into a fresh directory and
// returns the flags to start the server with.
func newServeEnv(cfg runConfig, in *inputs, text []byte, n int) (*serveEnv, error) {
	dir := filepath.Join(cfg.Scratch, strconv.Itoa(n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	graph := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(graph, text, 0o644); err != nil {
		return nil, err
	}
	env := &serveEnv{bin: filepath.Join(cfg.Root, ".bench_build", serverBinName), dir: dir, args: []string{"-graph", graph}}
	if in.def.Mixed {
		env.args = append(env.args, "-data-dir", filepath.Join(dir, "data"), "-wal-dir", filepath.Join(dir, "wal"))
		env.args = append(env.args, mixedFlags...)
	}
	return env, nil
}

// serveWindow is what the clients of one window measured.
type serveWindow struct {
	reads   windowStats
	updates windowStats
	// resultHits and planHits count the correct replies that said
	// result_cached and plan_cached.
	resultHits, planHits int
	before, after        serverStats
}

// runClients drives the closed loop: warm-up, then the measured window.
// Readers draw pool ranks Zipf(1.1); with a model, one connection writes
// and the others read.
func runClients(cfg runConfig, in *inputs, base string, pool []poolQuery, model *mixedModel, res *runResult) (*serveWindow, error) {
	readers := nproc
	if model != nil {
		readers = max(nproc-1, 1)
	}
	h := newHTTPClient(base, nproc)
	defer h.close()
	var (
		mu       sync.Mutex
		win      serveWindow
		firstErr error
		wg       sync.WaitGroup
	)
	noteErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	measureFrom := start.Add(cfg.warmup())
	end := measureFrom.Add(cfg.window())

	for c := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zipf := newStratified(zipfSampler(len(pool), zipfS), newRNG(cfg.Seed*1000+uint64(c)+3))
			var local windowStats
			resultHits, planHits := 0, 0
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				resp, rtt, err := h.query(in, &pool[zipf.draw()])
				if t0.Before(measureFrom) {
					if err != nil {
						noteErr(err)
					}
					continue
				}
				if err != nil {
					noteErr(err)
					local.Failed++
					continue
				}
				local.add(rtt, measureFrom)
				if resp.ResultCached {
					resultHits++
				}
				if resp.PlanCached {
					planHits++
				}
			}
			mu.Lock()
			win.resultHits += resultHits
			win.planHits += planHits
			win.reads.Lat = append(win.reads.Lat, local.Lat...)
			win.reads.At = append(win.reads.At, local.At...)
			win.reads.Failed += local.Failed
			mu.Unlock()
		}()
	}
	if model != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				_, rtt, err := model.update(h)
				if err != nil {
					noteErr(err)
				}
				switch {
				case t0.Before(measureFrom):
				case err != nil:
					win.updates.Failed++
				default:
					win.updates.add(rtt, measureFrom)
				}
				time.Sleep(writerThink)
			}
		}()
	}

	// /stats at both edges of the window, read beside the running clients.
	time.Sleep(time.Until(measureFrom))
	if err := h.get("/stats", &win.before); err != nil {
		noteErr(err)
	}
	wg.Wait()
	elapsed := time.Since(measureFrom)
	win.reads.Elapsed, win.updates.Elapsed = elapsed, elapsed
	if err := h.get("/stats", &win.after); err != nil {
		return nil, err
	}
	if firstErr != nil {
		res.note("first failed request: " + firstErr.Error())
	}
	return &win, nil
}

// fsType names the filesystem holding dir (the WAL's latencies are this
// sandbox's, not a device's).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xef53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683e: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func runServe(cfg runConfig, in *inputs, res *runResult) error {
	text := edgeListText(in.g)
	pool := buildPool(in.g)

	// Set-up: edge file written → server spawned → ready → first correct
	// answers to the global queries. The last instance serves the window.
	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	var (
		env    *serveEnv
		p      *serverProc
		setups []float64
	)
	for n := range repeats {
		if p != nil {
			p.kill()
		}
		t0 := time.Now()
		var err error
		if env, err = newServeEnv(cfg, in, text, n); err != nil {
			return err
		}
		if p, err = startServer(env.bin, env.args...); err != nil {
			return err
		}
		// One caller, one global query at a time: the clients never run
		// two of these at once, whose transient memory would make the
		// server's peak RSS a matter of luck.
		h := newHTTPClient(p.base, 1)
		for i := range globalQueries {
			res.Attempted++
			if _, _, err := h.query(in, &pool[i]); err != nil {
				res.Failed++
				res.note("set-up: " + err.Error())
			}
		}
		h.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { p.kill() }()

	var model *mixedModel
	if in.def.Mixed {
		model = newMixedModel(in.g, cfg.Seed)
		res.note(fmt.Sprintf("serve_mixed server flags %v; wal filesystem type %s", mixedFlags, fsType(env.dir)))
	}
	window := cfg
	if cfg.Trace {
		// The traced run splits its time between this window, which gives
		// the /stats deltas, and the in-process span replay.
		window.Seconds /= 2
	}
	win, err := runClients(window, in, p.base, pool, model, res)
	if err != nil {
		return err
	}
	res.Attempted += win.reads.attempted() + win.updates.attempted()
	res.Failed += win.reads.Failed + win.updates.Failed
	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if model != nil {
		a, f, err := checkAfterCrash(in, env, p, model, res)
		if err != nil {
			return err
		}
		res.Attempted += a
		res.Failed += f
	}

	if !cfg.Trace {
		res.set("setup_s", median(setups), "s")
		win.reads.report(res)
		res.set("peak_rss_mb", rss, "MB")
		return nil
	}
	reportServerCounts(res, win.resultHits, win.planHits, len(win.reads.Lat), &win.before, &win.after)
	if model != nil {
		reportUpdates(res, &win.updates)
	}
	if err := replayServe(window, in, pool, res); err != nil {
		return err
	}
	return runProbes(cfg, in, res, win)
}

// reportUpdates writes the writer's metrics.
func reportUpdates(res *runResult, w *windowStats) {
	perSec, p50, p95 := w.summary()
	res.set("updates_per_s", perSec, "batch/s")
	res.set("update_p50_ms", p50, "ms")
	res.set("update_p95_ms", p95, "ms")
	res.Samples["update_p50_ms"] = len(w.Lat)
}
